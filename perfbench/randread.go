package main

import (
	"fmt"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/refdata"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// randread: the paper's §IV-A device with the Fig. 8 L2P sizing (chunk-only
// aggregation, a cache holding ~72.6% of the chunk entries of the prefilled
// 1 GiB range), driven by 4 KiB uniform random reads submitted in doorbell
// bursts of 32 on one queue as a closed loop.
const (
	rrRange        = 1 * units.GiB
	rrBurst        = 32
	rrStampEvery   = 64  // every 64th prefilled sector carries a stamp
	rrPrefillChunk = 256 // sectors per prefill write (1 MiB)
	rrBlock        = 8192
)

// randreadSizes are the warm-up and fixed-pass read counts.
func randreadSizes(short bool) (warm, fixed int64) {
	if short {
		return 4096, 16384
	}
	return 64 << 10, 256 << 10
}

// randreadConfig is config.Paper() with RunFig8's cache sizing.
func randreadConfig() config.DeviceConfig {
	c := config.Paper()
	c.FTL.AggregateZones = false
	entries := rrRange / (c.FTL.ChunkSectors * units.Sector)
	resident := int64(float64(entries) * (1 - refdata.Fig8TargetMissRate))
	c.FTL.L2PCacheBytes = resident * c.FTL.L2PEntryBytes
	return c
}

// randread is one randread device with its generator.
type randread struct {
	s       *session
	seed    uint64
	rng     *sim.Rand
	sectors int64
}

// buildRandread sets up the device: build it and prefill the range
// sequentially (every rrStampEvery-th sector stamped), then flush.
func buildRandread(seed uint64, tr *tracer) (*randread, error) {
	f, err := randreadConfig().NewConZone()
	if err != nil {
		return nil, err
	}
	s, err := newSession(f, host.Config{Queues: 1, Depth: rrBurst}, tr)
	if err != nil {
		return nil, err
	}
	sectors := int64(rrRange / units.Sector)
	payloads := make([][]byte, rrPrefillChunk)
	for lba := int64(0); lba < sectors; lba += rrPrefillChunk {
		for i := range payloads {
			payloads[i] = nil
			if (lba+int64(i))%rrStampEvery == 0 {
				payloads[i] = stampBuf(make([]byte, units.Sector), stamp(seed, lba+int64(i), 0))
			}
		}
		if err := s.do(0, host.Request{Op: host.OpWrite, LBA: lba, Payloads: payloads}); err != nil {
			return nil, fmt.Errorf("prefill at %d: %w", lba, err)
		}
	}
	if err := s.do(0, host.Request{Op: host.OpFlush, Zone: -1}); err != nil {
		return nil, fmt.Errorf("prefill flush: %w", err)
	}
	s.cmds, s.failed = 0, 0 // the measured counters start after set-up
	return &randread{s: s, seed: seed, rng: sim.NewRand(seed ^ 0x52414E44), sectors: sectors}, nil
}

// burst submits rrBurst reads at the previous burst's last completion and
// reaps them, verifying stamped sectors.
func (w *randread) burst() {
	s := w.s
	at := s.clock
	n := 0
	for i := 0; i < rrBurst; i++ {
		lba := w.rng.Int63n(w.sectors)
		if _, err := s.submit(at, 0, host.Request{Op: host.OpRead, LBA: lba, N: 1}); err == nil {
			n++
		}
	}
	for got := 0; got < n; {
		for i := range s.poll(0) {
			c := &s.comps[i]
			got++
			if s.account(c, c.Submitted) && !w.verify(c) {
				s.mismatches++
			}
			s.ctrl.Recycle(c.Data)
		}
	}
}

// verify checks a read's payload: stamped sectors must carry their stamp,
// the rest read back as zeros (nil entries).
func (w *randread) verify(c *host.Completion) bool {
	if c.LBA%rrStampEvery == 0 {
		return len(c.Data) == 1 && stampOK(c.Data[0], stamp(w.seed, c.LBA, 0))
	}
	return c.Data == nil || (len(c.Data) == 1 && c.Data[0] == nil)
}

func runRandread(opt options, rep *report) error {
	warm, fixed := randreadSizes(opt.short)
	reps := 25
	if opt.short {
		reps = 1
	}
	w, setup, err := timeSetup(reps, func() (*randread, error) { return buildRandread(opt.seed, nil) })
	if err != nil {
		return err
	}
	rep.set("setup_s", "s", setup)

	var prof *profiler
	if opt.trace {
		if prof, err = startProfile(opt.outDir, opt.workload); err != nil {
			return err
		}
	}
	heap := startMeasuredHeap()
	p := measure(w.s, w.burst, warm, fixed, opt.seconds, nil, rrBlock)
	rep.set("heap_peak_mib", "MiB", heap.stop())
	if prof != nil {
		if err := prof.stop(); err != nil {
			return err
		}
	}
	s := w.s
	rep.digest = p.digest
	rep.attempted = s.cmds + s.refused
	rep.failed = s.failed + s.refused + s.mismatches
	rep.check(s.mismatches == 0, "%d reads returned data that did not verify", s.mismatches)
	if err := s.audit(); err != nil {
		rep.check(false, "invariant audit: %v", err)
	}

	rep.set("work_per_s", "1/s", p.rate)
	rep.set("emu_kops_per_s", "kcmd/s", p.rate/1e3)
	latencyMetrics(rep, "virt_read", s.lat[kindRead], 0.5, 0.999)
	queueDelayP99(rep, s.qdelay)
	if span := p.b.clock - p.a.clock; span > 0 {
		rep.set("virt_mib_per_s", "MiB/s", float64(p.ops*units.Sector)/float64(units.MiB)/(float64(span)/1e9))
	}
	rep.set("host.refused", "count", float64(s.refused))
	layerCounts(rep, p.a, p.b, p.ops, p.ops, 0)
	runtimeDelta(rep, p.a.rt, p.b.rt, p.ops)
	blockSpread(rep, p.blocks)
	rep.note("fixed pass: %d reads after %d warm-up reads; %d commands timed in %.2fs", p.ops, warm, s.cmds-warm, p.elapsed.Seconds())

	if !opt.trace {
		return nil
	}
	return traceDevice(opt, rep, p, func(tr *tracer) (*session, func(), error) {
		w, err := buildRandread(opt.seed, tr)
		if err != nil {
			return nil, nil, err
		}
		return w.s, w.burst, nil
	}, warm, fixed, rrBlock)
}
