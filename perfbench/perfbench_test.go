package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

// runShort runs a workload in short mode and fails the test on any error
// or failed output check.
func runShort(t *testing.T, workload string, seed uint64, trace bool) *report {
	t.Helper()
	return runOpt(t, options{workload: workload, seed: seed, short: true, trace: trace})
}

// runOpt runs one configuration with a zero-length timed phase.
func runOpt(t *testing.T, opt options) *report {
	t.Helper()
	workload := opt.workload
	opt.outDir = t.TempDir()
	rep, err := run(opt, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.correct() {
		t.Fatalf("%s: checks failed: %v", workload, rep.checkFailures)
	}
	return rep
}

// hostMetric reports whether a metric measures the emulator's wall-clock
// or Go-runtime cost, which varies run to run; every other metric is
// simulated output or a work count and must repeat exactly.
func hostMetric(name string) bool {
	switch name {
	case "work_per_s", "setup_s", "heap_peak_mib", "emu_kops_per_s", "fleet_devices_per_s",
		"paper_regen_s", "host.submit_ns", "host.poll_ns", "ftl.backend_ns", "telemetry.collect_ns",
		"fleet.alloc_kib_per_device", "fleet.worker_speedup", "obs.tracing_overhead_pct":
		return true
	}
	return strings.HasSuffix(name, ".self_pct") || strings.HasPrefix(name, "runtime.")
}

func TestShortWorkloadsPassChecks(t *testing.T) {
	for _, w := range []string{"randread", "zonemix", "fleet", "paper"} {
		t.Run(w, func(t *testing.T) {
			rep := runShort(t, w, 1, false)
			for _, n := range endToEnd {
				if v, ok := rep.named[n]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, v)
				}
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("attempted %d failed %d", rep.attempted, rep.failed)
			}
		})
	}
}

func TestSameSeedRepeatsVirtualMetrics(t *testing.T) {
	for _, w := range []string{"randread", "zonemix", "fleet"} {
		t.Run(w, func(t *testing.T) {
			a, b := runShort(t, w, 7, false), runShort(t, w, 7, false)
			if a.digest != b.digest {
				t.Errorf("digest %s then %s", a.digest, b.digest)
			}
			for n, m := range a.named {
				if !hostMetric(n) && b.named[n] != m {
					t.Errorf("%s: %v then %v", n, m, b.named[n])
				}
			}
		})
	}
}

func TestSeedChangesCommandStream(t *testing.T) {
	for _, w := range []string{"randread", "zonemix", "fleet"} {
		t.Run(w, func(t *testing.T) {
			if a, b := runShort(t, w, 1, false), runShort(t, w, 2, false); a.digest == b.digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", a.digest)
			}
		})
	}
}

// TestTracedRunMatchesUntraced runs each workload traced: the shim and the
// recorder must leave the digest unchanged (an output check of the run),
// the fleet digest must not move at one worker, and the profile's package
// shares must cover the samples.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range []string{"randread", "zonemix", "fleet"} {
		t.Run(w, func(t *testing.T) {
			rep := runShort(t, w, 3, true)
			var sum float64
			for _, l := range layerPackages {
				sum += rep.named[l+".self_pct"].Value
			}
			if sum < 95 || sum > 105 {
				t.Errorf("self_pct values sum to %.2f%%, want ~100%%", sum)
			}
		})
	}
}

func TestLayerPredictions(t *testing.T) {
	rr := runShort(t, "randread", 1, false)
	if h := rr.named["l2pcache.hit_ratio"].Value; h < 0.726-0.12 || h > 0.726+0.12 {
		t.Errorf("randread hit ratio %.3f outside Fig. 8's band", h)
	}
	for _, n := range []string{"wbuf.evictions", "slc.gc_collections", "slc.gc_migrated", "zns.resets", "zns.finishes", "nand.erases"} {
		if v := rr.named[n].Value; v != 0 {
			t.Errorf("randread %s = %v, want 0", n, v)
		}
	}
	// The full fixed pass: the short one is too brief for zone wraps and GC.
	zm := runOpt(t, options{workload: "zonemix", seed: 1})
	for _, n := range []string{"wbuf.evictions", "slc.gc_migrated", "zns.finishes", "zns.resets"} {
		if v := zm.named[n].Value; v <= 0 {
			t.Errorf("zonemix %s = %v, want > 0", n, v)
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, program reports %s", i, m.Name, endToEnd[i])
		}
	}
	if len(bj.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bj.PerLayer {
		w := perLayerMetrics[i]
		if m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, w)
		}
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s unknown to the program", w.Name)
		}
	}
}

func TestPkgOfAndLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/conzone/conzone/internal/host.(*Controller).submit": "host",
		"github.com/conzone/conzone/internal/ftl.(*FTL).ReadInto":       "ftl",
		"runtime.mallocgc": "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":           "runtime",
		"main.(*session).account":                                "bench",
		"crypto/sha256.block":                                    "other",
		"slices.SortFunc[go.shape.[]int,go.shape.int]":           "other",
		"github.com/conzone/conzone/internal/sim.NewRand":        "sim",
		"github.com/conzone/conzone/internal/check.Audit":        "other",
		"github.com/conzone/conzone/internal/nand.(*Array).Read": "nand",
	} {
		if got := layerOf(pkgOf(fn)); got != want {
			t.Errorf("%s -> %s, want %s", fn, got, want)
		}
	}
}

func TestClaimErr(t *testing.T) {
	for line, want := range map[string]float64{
		"[x] s: paper=1.000 measured=1.056 (±0.150) OK":                               0.056 / 0.150,
		"[fig7-hybrid-tail] hybrid p99 ~50µs: measured=33.22µs (band [15µs,85µs]) OK": 16.78 / 35,
	} {
		got, err := claimErr(line)
		if err != nil || got < want-1e-9 || got > want+1e-9 {
			t.Errorf("claimErr(%q) = %v, %v; want %v", line, got, err, want)
		}
	}
	if _, err := claimErr("[x] nothing to parse OK"); err == nil {
		t.Error("unparsable line accepted")
	}
}
