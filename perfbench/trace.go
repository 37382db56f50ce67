package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
)

// spanKind names a traced call: host spans wrap the benchmark's calls into
// the controller, backend spans the controller's calls into the FTL.
type spanKind uint8

const (
	spanSubmit spanKind = iota
	spanPoll
	spanRead
	spanReadInto
	spanStageRead
	spanDrainStaged
	spanWrite
	spanAppend
	spanFlush
	spanFlushAll
	spanReset
	spanClose
	spanFinish
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"host.submit", "host.poll",
	"ftl.read", "ftl.read_into", "ftl.stage_read", "ftl.drain_staged_reads",
	"ftl.write", "ftl.append", "ftl.flush", "ftl.flush_all",
	"ftl.reset_zone", "ftl.close_zone", "ftl.finish_zone",
}

// span is one traced wall-clock interval; parent indexes the enclosing
// host span (-1 for host spans themselves).
type span struct {
	kind       spanKind
	parent     int32
	start, end int64 // ns since the tracer started
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int32 // open host span, -1 when none
}

// maxSpans bounds the tracer's memory (32 bytes a span); calls beyond it
// are not traced and reported as dropped.
const maxSpans = 4 << 20

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), cur: -1}
}

// reset drops the spans recorded so far (the warm-up's).
func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.cur = -1
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a host span (spanSubmit, spanPoll) or a backend span under
// the open host span, returning its index (-1 when over the bound).
func (t *tracer) open(k spanKind) int32 {
	if len(t.spans) >= maxSpans {
		return -1
	}
	idx := int32(len(t.spans))
	parent := t.cur
	if k <= spanPoll {
		parent = -1
		t.cur = idx
	}
	t.spans = append(t.spans, span{kind: k, parent: parent, start: t.now()})
	return idx
}

func (t *tracer) close(idx int32) {
	if idx < 0 {
		return
	}
	t.spans[idx].end = t.now()
	if idx == t.cur {
		t.cur = -1
	}
}

// summarize reports the host layer's self time per Submit/PollInto (the
// host span minus its child backend spans) and the mean backend call.
func (t *tracer) summarize(rep *report) {
	var selfNs, count [2]int64
	var beNs, beCount int64
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			beNs += s.end - s.start
			beCount++
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.kind <= spanPoll {
			selfNs[s.kind] += s.end - s.start - child[i]
			count[s.kind]++
		}
	}
	mean := func(sum, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n)
	}
	rep.set("host.submit_ns", "ns", mean(selfNs[spanSubmit], count[spanSubmit]))
	rep.set("host.poll_ns", "ns", mean(selfNs[spanPoll], count[spanPoll]))
	rep.set("ftl.backend_ns", "ns", mean(beNs, beCount))
	rep.note("spans: %d host submits, %d host polls, %d backend calls", count[spanSubmit], count[spanPoll], beCount)
}

// write saves the spans as CSV (kind,parent,start_ns,end_ns).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,parent,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d\n", spanNames[s.kind], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend wraps the FTL as the controller's backend and records a
// span per call. It forwards every optional interface the controller
// probes (ReadInto, the staged-read surface, ReadsShardable), so the
// controller takes exactly the code path it takes over the bare FTL.
type tracedBackend struct {
	f  *ftl.FTL
	tr *tracer
}

func (b *tracedBackend) Read(at sim.Time, lba, n int64) ([][]byte, sim.Time, error) {
	sp := b.tr.open(spanRead)
	d, t, err := b.f.Read(at, lba, n)
	b.tr.close(sp)
	return d, t, err
}

func (b *tracedBackend) ReadInto(at sim.Time, lba, n int64, dst [][]byte) (sim.Time, error) {
	sp := b.tr.open(spanReadInto)
	t, err := b.f.ReadInto(at, lba, n, dst)
	b.tr.close(sp)
	return t, err
}

func (b *tracedBackend) ReadsShardable() bool { return b.f.ReadsShardable() }

func (b *tracedBackend) StageRead(at sim.Time, lba, n int64, dst [][]byte) {
	sp := b.tr.open(spanStageRead)
	b.f.StageRead(at, lba, n, dst)
	b.tr.close(sp)
}

func (b *tracedBackend) DrainStagedReads(emit func(i int, done sim.Time, err error)) {
	sp := b.tr.open(spanDrainStaged)
	b.f.DrainStagedReads(emit)
	b.tr.close(sp)
}

func (b *tracedBackend) Write(at sim.Time, lba int64, p [][]byte) (sim.Time, error) {
	sp := b.tr.open(spanWrite)
	t, err := b.f.Write(at, lba, p)
	b.tr.close(sp)
	return t, err
}

func (b *tracedBackend) Append(at sim.Time, zone int, p [][]byte) (int64, sim.Time, error) {
	sp := b.tr.open(spanAppend)
	l, t, err := b.f.Append(at, zone, p)
	b.tr.close(sp)
	return l, t, err
}

func (b *tracedBackend) Flush(at sim.Time, zone int) (sim.Time, error) {
	sp := b.tr.open(spanFlush)
	t, err := b.f.Flush(at, zone)
	b.tr.close(sp)
	return t, err
}

func (b *tracedBackend) FlushAll(at sim.Time) (sim.Time, error) {
	sp := b.tr.open(spanFlushAll)
	t, err := b.f.FlushAll(at)
	b.tr.close(sp)
	return t, err
}

func (b *tracedBackend) ResetZone(at sim.Time, zone int) (sim.Time, error) {
	sp := b.tr.open(spanReset)
	t, err := b.f.ResetZone(at, zone)
	b.tr.close(sp)
	return t, err
}

func (b *tracedBackend) CloseZone(at sim.Time, zone int) (sim.Time, error) {
	sp := b.tr.open(spanClose)
	t, err := b.f.CloseZone(at, zone)
	b.tr.close(sp)
	return t, err
}

func (b *tracedBackend) FinishZone(at sim.Time, zone int) (sim.Time, error) {
	sp := b.tr.open(spanFinish)
	t, err := b.f.FinishZone(at, zone)
	b.tr.close(sp)
	return t, err
}

func (b *tracedBackend) NumZones() int           { return b.f.NumZones() }
func (b *tracedBackend) ZoneCapSectors() int64   { return b.f.ZoneCapSectors() }
func (b *tracedBackend) TotalSectors() int64     { return b.f.TotalSectors() }
func (b *tracedBackend) Recorder() *obs.Recorder { return b.f.Recorder() }

// deviceBuilder sets up a device workload, over the tracing shim when tr is
// non-nil, and returns its session and step.
type deviceBuilder func(tr *tracer) (*session, func(), error)

// traceDevice is the traced part of a device workload's -trace 1 run. It
// runs the fixed pass twice more on fresh devices with the profiler off:
// once untraced, once through the tracing shim with the lifecycle recorder
// armed. The two passes differ only by the shim, the spans and the
// recorder, so the ratio of their rates is the tracing overhead. The traced
// pass must reproduce the untraced digest. It then reports the span
// summary, the recorder's stage percentiles, the profile fold and the span
// file.
func traceDevice(opt options, rep *report, untraced pass, build deviceBuilder, warm, fixed, block int64) error {
	s, step, err := build(nil)
	if err != nil {
		return err
	}
	collect()
	bare := measure(s, step, warm, fixed, 0, nil, block)

	tr := newTracer()
	if s, step, err = build(tr); err != nil {
		return err
	}
	rec := obs.NewRecorder(0)
	collect()
	traced := measure(s, step, warm, fixed, 0, rec, block)
	rep.check(traced.digest == untraced.digest, "traced digest %s differs from untraced %s", traced.digest, untraced.digest)
	if traced.fixedRate > 0 {
		rep.set("obs.tracing_overhead_pct", "%", 100*(bare.fixedRate/traced.fixedRate-1))
	}
	rep.note("fixed-pass host rate: %.4g cmd/s untraced, %.4g cmd/s traced (profiler off for both)", bare.fixedRate, traced.fixedRate)

	tr.summarize(rep)
	stageP99(rep, rec, "mapping.fetch_us_p99", obs.StageMapFetch)
	stageP99(rep, rec, "slc.stage_us_p99", obs.StageSLCStage)
	stageP99(rep, rec, "slc.gc_migrate_us_p99", obs.StageGCMigrate)
	stageP99(rep, rec, "zns.reset_us_p99", obs.StageZoneReset)
	stageP99(rep, rec, "zns.finish_us_p99", obs.StageZoneFinish)
	stageP99(rep, rec, "nand.program_us_p99", obs.StageNANDProgram)
	if err := tr.write(opt.outDir + "/" + opt.workload + ".spans.csv"); err != nil {
		return err
	}
	return foldProfile(rep, opt.outDir+"/"+opt.workload+".cpu.pprof")
}

// profiler records the untraced run's CPU profile.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(dir, workload string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &profiler{path: filepath.Join(dir, workload+".cpu.pprof")}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.f = f
	return p, nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// layerPackages are the module's packages a profile folds into
// <pkg>.self_pct; "runtime" collects the Go runtime, "bench" this
// benchmark's own code and "other" the remaining standard library.
var layerPackages = []string{
	"host", "ftl", "wbuf", "slc", "l2pcache", "mapping", "nand", "sim", "zns",
	"telemetry", "fleet", "workload", "stats", "experiments", "legacy", "femu",
	"confzns", "obs", "fault", "power", "config", "units", "refdata",
	"runtime", "bench", "other",
}

// layerOf maps a function's package path to its layer name.
func layerOf(pkg string) string {
	const internal = "github.com/conzone/conzone/internal/"
	switch {
	case strings.HasPrefix(pkg, internal):
		name := strings.TrimPrefix(pkg, internal)
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		for _, l := range layerPackages {
			if l == name {
				return name
			}
		}
		return "other"
	case pkg == "main":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// pkgOf extracts the package path of a symbolized function name, e.g.
// "github.com/x/y/internal/host.(*Controller).submit" -> ".../internal/host".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldProfile folds the profile's flat samples by package into
// <layer>.self_pct using `go tool pprof -top`.
func foldProfile(rep *report, path string) error {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path)
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	share := map[string]float64{}
	var total float64
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 6 || !strings.HasSuffix(fields[1], "%") || !strings.HasSuffix(fields[4], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
		if err != nil {
			continue
		}
		share[layerOf(pkgOf(strings.Join(fields[5:], " ")))] += pct
		total += pct
	}
	if total == 0 {
		return fmt.Errorf("profile %s holds no samples", path)
	}
	for _, l := range layerPackages {
		rep.set(l+".self_pct", "%", share[l])
	}
	rep.note("self_pct sum %.2f%% over the profile's flat samples", total)
	return nil
}
