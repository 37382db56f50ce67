package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// heapSampler tracks the peak live heap (as marked by the last completed
// GC cycle) over a workload's measured phase.
type heapSampler struct {
	stop_ chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	peak  uint64 // over the whole phase
	lapPk uint64 // since the last lap
}

// heapPollEvery is how often the sampler reads the runtime's live-heap
// gauge; the gauge only moves at GC cycle ends, so a few ms misses none.
const heapPollEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop_: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return
		}
		v := sample[0].Value.Uint64()
		h.mu.Lock()
		h.peak = max(h.peak, v)
		h.lapPk = max(h.lapPk, v)
		h.mu.Unlock()
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapPollEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop_:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// startMeasuredHeap collects the set-up's garbage and starts sampling the
// live heap for the measured phase.
func startMeasuredHeap() *heapSampler {
	collect()
	return startHeapSampler()
}

// collect runs two GC cycles: an FTL's finalizer (ftl.New) keeps a dead
// device alive through the first.
func collect() {
	runtime.GC()
	runtime.GC()
}

// stop ends sampling and returns the peak in MiB.
func (h *heapSampler) stop() float64 {
	close(h.stop_)
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// lap returns the peak in MiB since the previous lap and starts a new one.
// Workloads that repeat a unit of work (a population, a regeneration)
// report the median lap, which one ill-timed GC cycle does not move.
func (h *heapSampler) lap() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := h.lapPk
	h.lapPk = 0
	return float64(v) / (1 << 20)
}

// runtimeCounters is a snapshot of the Go runtime's cumulative counters.
type runtimeCounters struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds of CPU spent in GC
	totalCPU   float64 // seconds of CPU available to the process
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var c runtimeCounters
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	c.allocBytes, c.gcCycles = u(0), u(1)
	c.gcCPU, c.totalCPU = f(2), f(3)
	return c
}

// runtimeDelta reports the runtime metrics of the interval a..b over ops
// operations.
func runtimeDelta(rep *report, a, b runtimeCounters, ops int64) {
	if ops > 0 {
		rep.set("runtime.alloc_bytes_per_op", "B/op", float64(b.allocBytes-a.allocBytes)/float64(ops))
	}
	rep.set("runtime.gc_cycles", "count", float64(b.gcCycles-a.gcCycles))
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		rep.set("runtime.gc_cpu_pct", "%", 100*(b.gcCPU-a.gcCPU)/cpu)
	}
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of sorted ns values.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// latencyMetrics sorts the virtual latencies (ns) and records the named
// percentiles in µs, each with its sample count in a note.
func latencyMetrics(rep *report, prefix string, lat []int64, qs ...float64) {
	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	for _, q := range qs {
		name := prefix + "_" + quantileName(q) + "_us"
		rep.set(name, "us", float64(percentile(lat, q))/1e3)
		rep.note("%s over %d samples (%d beyond it)", name, len(lat), len(lat)-int(math.Ceil(q*float64(len(lat)))))
	}
}

func quantileName(q float64) string {
	switch q {
	case 0.5:
		return "p50"
	case 0.99:
		return "p99"
	case 0.999:
		return "p999"
	}
	return "p?"
}

// timeSetup runs build n times and returns the median wall seconds plus the
// last build's result, so the measured phase runs on a freshly set-up
// instance while setup_s reflects every repetition. Each build starts from
// a collected heap, outside the timed interval, so no build pays for the
// previous one's garbage.
func timeSetup[T any](n int, build func() (T, error)) (T, float64, error) {
	var last T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var zero T
		last = zero // the previous build is garbage from here on
		collect()
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// queueDelayP99 records the virtual host queueing delay's p99 in µs.
func queueDelayP99(rep *report, qd []int64) {
	if len(qd) == 0 {
		return
	}
	sort.Slice(qd, func(i, j int) bool { return qd[i] < qd[j] })
	rep.set("host.queue_delay_us_p99", "us", float64(percentile(qd, 0.99))/1e3)
}

// blockSpread notes the quartiles of the per-block host rates.
func blockSpread(rep *report, rates []float64) {
	r := append([]float64(nil), rates...)
	sort.Float64s(r)
	if len(r) < 4 {
		return
	}
	q := func(f float64) float64 { return r[int(f*float64(len(r)-1))] }
	rep.note("host rate over %d blocks: q1 %.4g, median %.4g, q3 %.4g, p90 %.4g cmd/s", len(r), q(0.25), q(0.5), q(0.75), q(0.9))
}
