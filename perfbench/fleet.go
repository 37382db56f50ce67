package main

import (
	"runtime"
	"time"

	"github.com/conzone/conzone/internal/fleet"
)

// fleet: the fleet.DefaultSpec two-cohort population (fresh devices, and
// worn devices with seeded faults and power cuts) run with one worker per
// CPU. Each timed repetition simulates the whole population.
func fleetDevicesPerCohort(short bool) int {
	if short {
		return 40
	}
	return 500
}

// fleetSpec builds and validates the population (the workload's set-up:
// Validate builds every cohort's corner configurations).
func fleetSpec(seed uint64, perCohort int) (*fleet.Spec, error) {
	spec := fleet.DefaultSpec(seed, perCohort)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// fleetRep is one timed fleet run.
type fleetRep struct {
	res  *fleet.Result
	wall time.Duration
}

// runFleetOnce simulates the population once. Callers collect the heap
// first, so repetitions are independent samples of one population run
// rather than inheriting the previous run's garbage (FTLs carry finalizers
// and outlive a GC cycle).
func runFleetOnce(spec *fleet.Spec, workers int) (fleetRep, error) {
	start := time.Now()
	res, err := fleet.Run(spec, fleet.Options{Workers: workers})
	return fleetRep{res, time.Since(start)}, err
}

func runFleet(opt options, rep *report) error {
	per := fleetDevicesPerCohort(opt.short)
	spec, setup, err := timeSetup(101, func() (*fleet.Spec, error) { return fleetSpec(opt.seed, per) })
	if err != nil {
		return err
	}
	rep.set("setup_s", "s", setup)
	workers := runtime.NumCPU()

	var prof *profiler
	if opt.trace {
		if prof, err = startProfile(opt.outDir, opt.workload); err != nil {
			return err
		}
	}
	heap := startMeasuredHeap()
	rt0 := readRuntime()
	var rates, kops, heaps []float64
	var first *fleet.CohortResult // the whole-fleet merge of the first repetition
	digest := ""
	began := time.Now()
	devices := int64(0)
	for len(rates) == 0 || time.Since(began).Seconds() < opt.seconds {
		runtime.GC()
		heap.lap()
		r, err := runFleetOnce(spec, workers)
		if err != nil {
			return err
		}
		heaps = append(heaps, heap.lap())
		n := int64(r.res.Fleet.Devices)
		devices += n
		rates = append(rates, float64(n)/r.wall.Seconds())
		kops = append(kops, float64(r.res.Fleet.Ops)/r.wall.Seconds()/1e3)
		d := r.res.Digest()
		if first == nil {
			merged := r.res.Fleet // a copy: the devices' results are not kept
			first, digest = &merged, d
			for _, dev := range r.res.Devices {
				rep.check(dev.Err == "", "device %v failed: %s", dev.Params, dev.Err)
			}
		}
		rep.check(d == digest, "fleet digest changed between identical runs: %s vs %s", d, digest)
		rep.attempted += n
		rep.failed += int64(r.res.Fleet.Failed)
	}
	rt1 := readRuntime()
	heap.stop()
	rep.set("heap_peak_mib", "MiB", median(heaps))
	if prof != nil {
		if err := prof.stop(); err != nil {
			return err
		}
	}
	rep.digest = digest

	rate := median(rates)
	rep.set("work_per_s", "1/s", rate)
	rep.set("fleet_devices_per_s", "dev/s", rate)
	rep.set("emu_kops_per_s", "kcmd/s", median(kops))
	f := first
	rep.set("virt_write_p999_us", "us", float64(f.Lat.P999)/1e3)
	rep.note("virt_write_p999_us over %d samples (fleet-merged histogram of %d devices)", f.Lat.Count, f.Devices)
	rep.set("waf", "1", f.Telemetry.WAF)
	rep.set("fault.media_errors", "count", float64(f.IOErrors))
	rep.set("fleet.alloc_kib_per_device", "KiB", float64(rt1.allocBytes-rt0.allocBytes)/1024/float64(devices))
	runtimeDelta(rep, rt0, rt1, f.Ops*int64(len(rates)))
	rep.note("%d repetitions of %d devices (%d power-lost, %d read-only, %d media errors) with %d workers in %.2fs",
		len(rates), f.Devices, f.PowerLost, f.ReadOnly, f.IOErrors, workers, time.Since(began).Seconds())

	if !opt.trace {
		return nil
	}
	// (d) the same population once more on one worker: the digest must not
	// move, and the ratio of rates is the worker speedup.
	runtime.GC()
	one, err := runFleetOnce(spec, 1)
	if err != nil {
		return err
	}
	rep.check(one.res.Digest() == digest, "fleet digest at 1 worker %s differs from %d workers %s", one.res.Digest(), workers, digest)
	if r1 := float64(one.res.Fleet.Devices) / one.wall.Seconds(); r1 > 0 {
		rep.set("fleet.worker_speedup", "x", rate/r1)
	}
	return foldProfile(rep, opt.outDir+"/"+opt.workload+".cpu.pprof")
}
