package fleet

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/stats"
	"github.com/conzone/conzone/internal/telemetry"
	"github.com/conzone/conzone/internal/units"
	"github.com/conzone/conzone/internal/workload"
)

// Options tunes the runner without affecting results.
type Options struct {
	// Workers bounds the number of devices simulated concurrently;
	// 0 uses runtime.NumCPU(). The worker count is pure mechanism: any
	// value produces byte-identical merged output.
	Workers int
	// Progress, when non-nil, is called after each device completes with
	// the number finished so far and the population size. Calls come from
	// worker goroutines but never overlap, and done increases by one per
	// call.
	Progress func(done, total int)
}

// DeviceResult is one device's complete outcome.
type DeviceResult struct {
	Params    DeviceParams
	Workload  workload.Result
	Telemetry telemetry.Stats
	PowerLost bool
	ReadOnly  bool
	// Err is a device-level failure (geometry or run error), recorded
	// instead of aborting the population run.
	Err string
}

// CohortResult is a cohort's merged outcome. The same type carries the
// whole-fleet merge (Result.Fleet).
type CohortResult struct {
	Name    string
	Devices int

	// Failed counts devices whose construction or run errored outright.
	Failed int
	// PowerLost counts devices whose armed power cut fired mid-run.
	PowerLost int
	// ReadOnly counts devices that ended in read-only mode (spares
	// exhausted).
	ReadOnly int

	Bytes    int64
	Ops      int64
	IOErrors int64

	// Hist is the population latency histogram: per-device histograms
	// merged bucket-wise, so Lat's percentiles are exact over every
	// operation any device of the cohort completed.
	Hist *stats.Histogram
	Lat  stats.Summary

	// Telemetry is the cohort's summed device telemetry (ratio gauges
	// recomputed from the sums).
	Telemetry telemetry.Stats
}

// merge folds one device into the cohort tallies.
func (c *CohortResult) merge(d *DeviceResult) {
	c.Devices++
	if d.Err != "" {
		c.Failed++
		return
	}
	if d.PowerLost {
		c.PowerLost++
	}
	if d.ReadOnly {
		c.ReadOnly++
	}
	c.Bytes += d.Workload.Bytes
	c.Ops += d.Workload.Ops
	c.IOErrors += d.Workload.IOErrors
	if d.Workload.Hist != nil {
		c.Hist.Merge(d.Workload.Hist)
	}
	c.Telemetry = telemetry.Add(c.Telemetry, d.Telemetry)
}

// Result is the full fleet outcome: per-cohort merges in spec order plus
// the whole-population merge.
type Result struct {
	Spec    *Spec
	Cohorts []CohortResult
	Fleet   CohortResult
	// Devices holds every device's individual result, cohort-major in
	// spec order (device i of cohort c at the obvious offset).
	Devices []DeviceResult
}

// Run simulates the whole population and merges the results. Devices are
// distributed over opt.Workers goroutines; each writes into its own
// pre-sized slot and the merge happens afterwards in device order, so the
// returned Result is identical — field for field — at any worker count.
func Run(spec *Spec, opt Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}

	// Flat device index -> (cohort, device-in-cohort).
	total := spec.Devices()
	cohortOf := make([]int, total)
	deviceOf := make([]int, total)
	flat := 0
	for ci, c := range spec.Cohorts {
		for di := 0; di < c.Devices; di++ {
			cohortOf[flat] = ci
			deviceOf[flat] = di
			flat++
		}
	}

	results := make([]DeviceResult, total)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	var done int64
	var doneMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range idxCh {
				results[idx] = runDevice(spec, cohortOf[idx], deviceOf[idx])
				if opt.Progress != nil {
					doneMu.Lock()
					done++
					opt.Progress(int(done), total)
					doneMu.Unlock()
				}
			}
		}()
	}
	for idx := 0; idx < total; idx++ {
		idxCh <- idx
	}
	close(idxCh)
	wg.Wait()

	res := &Result{
		Spec:    spec,
		Cohorts: make([]CohortResult, len(spec.Cohorts)),
		Fleet:   CohortResult{Name: "fleet", Hist: stats.NewHistogram()},
		Devices: results,
	}
	for ci, c := range spec.Cohorts {
		res.Cohorts[ci] = CohortResult{Name: c.Name, Hist: stats.NewHistogram()}
	}
	for idx := range results {
		res.Cohorts[cohortOf[idx]].merge(&results[idx])
	}
	for ci := range res.Cohorts {
		cr := &res.Cohorts[ci]
		cr.Lat = cr.Hist.Summarize()
		res.Fleet.Devices += cr.Devices
		res.Fleet.Failed += cr.Failed
		res.Fleet.PowerLost += cr.PowerLost
		res.Fleet.ReadOnly += cr.ReadOnly
		res.Fleet.Bytes += cr.Bytes
		res.Fleet.Ops += cr.Ops
		res.Fleet.IOErrors += cr.IOErrors
		res.Fleet.Hist.Merge(cr.Hist)
		res.Fleet.Telemetry = telemetry.Add(res.Fleet.Telemetry, cr.Telemetry)
	}
	res.Fleet.Lat = res.Fleet.Hist.Summarize()
	return res, nil
}

// runDevice builds and drives one device, entirely from derived seeds. It
// never returns an error: a device that cannot be built or whose run fails
// reports through DeviceResult.Err, and a population run keeps going — one
// degraded device out of ten thousand is a data point, not an abort.
func runDevice(spec *Spec, ci, di int) DeviceResult {
	p := SampleDevice(spec, ci, di)
	d := DeviceResult{Params: p}
	c := &spec.Cohorts[ci]

	cfg, err := c.deviceConfig(p, p.FaultSeed)
	if err != nil {
		d.Err = err.Error()
		return d
	}
	f, err := cfg.NewConZone()
	if err != nil {
		d.Err = fmt.Sprintf("build: %v", err)
		return d
	}
	if p.PowerCutNs > 0 {
		f.Array().ArmPowerCut(sim.Time(p.PowerCutNs))
	}
	ctrl, err := host.New(f, host.Config{})
	if err != nil {
		d.Err = fmt.Sprintf("host: %v", err)
		return d
	}

	job, err := buildJob(p, f.ZoneCapSectors()*units.Sector, f.TotalSectors()*units.Sector)
	if err != nil {
		d.Err = err.Error()
		return d
	}
	res, err := workload.Run(ctrl, job)
	if err != nil {
		d.Err = fmt.Sprintf("run: %v", err)
	}
	d.Workload = res
	d.Telemetry = telemetry.Collect(f)
	d.PowerLost = f.Array().PowerCuts() > 0
	d.ReadOnly = f.ReadOnly()
	return d
}
