package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"strings"
	"time"

	"github.com/conzone/conzone/internal/check"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/telemetry"
)

// session drives one device through its host controller from a single
// goroutine. It owns the bookkeeping every device workload shares: the
// virtual clock, the completion buffer, the fixed-pass recording (digest
// stream and virtual latencies per op) and the armed telemetry sampler.
type session struct {
	f    *ftl.FTL
	ctrl *host.Controller
	tr   *tracer            // nil when untraced
	smp  *telemetry.Sampler // nil unless the workload arms it

	clock sim.Time // latest completion seen (the device clock)
	comps []host.Completion

	// Fixed-pass recording. stream holds (tag, op, lba, n, done) per
	// completion in reap order; lat and qdelay the virtual latencies.
	rec    bool
	stream []byte
	lat    [numOpKinds][]int64
	qdelay []int64

	cmds, failed, refused int64 // commands completed, failed, refused (whole run)
	mismatches            int64 // reads whose stamped payload did not verify

	samples     int64         // telemetry samples recorded
	collectWall time.Duration // wall time inside telemetry.Collect for samples
}

// opKind groups host ops for latency recording.
type opKind int

const (
	kindRead opKind = iota
	kindWrite
	kindFsync
	kindFinish
	kindReset
	numOpKinds
)

func kindOf(op host.Op) opKind {
	switch op {
	case host.OpRead:
		return kindRead
	case host.OpFlush:
		return kindFsync
	case host.OpFinish:
		return kindFinish
	case host.OpReset:
		return kindReset
	}
	return kindWrite
}

// newSession builds the controller over f (through the tracing shim when
// tr is non-nil) with the given queue layout.
func newSession(f *ftl.FTL, cfg host.Config, tr *tracer) (*session, error) {
	var be host.Backend = f
	if tr != nil {
		be = &tracedBackend{f: f, tr: tr}
	}
	ctrl, err := host.New(be, cfg)
	if err != nil {
		return nil, err
	}
	return &session{f: f, ctrl: ctrl, tr: tr, comps: make([]host.Completion, 0, 64)}, nil
}

// submit queues one command at virtual instant at on queue q. A refused
// submission (queue full) is counted and reported to the caller.
func (s *session) submit(at sim.Time, q int, req host.Request) (host.Tag, error) {
	var sp int32
	if s.tr != nil {
		sp = s.tr.open(spanSubmit)
	}
	tag, err := s.ctrl.Submit(at, q, req)
	if s.tr != nil {
		s.tr.close(sp)
	}
	if err != nil {
		if errors.Is(err, host.ErrQueueFull) {
			s.refused++
		}
		return 0, err
	}
	return tag, nil
}

// do runs one command to completion at the device clock (set-up paths).
func (s *session) do(q int, req host.Request) error {
	at := s.clock
	if _, err := s.submit(at, q, req); err != nil {
		return err
	}
	for i := range s.poll(q) {
		c := &s.comps[i]
		if !s.account(c, at) {
			return c.Err
		}
	}
	return nil
}

// poll dispatches everything pending and reaps queue q's completions into
// the session's reusable buffer.
func (s *session) poll(q int) []host.Completion {
	var sp int32
	if s.tr != nil {
		sp = s.tr.open(spanPoll)
	}
	s.comps = s.ctrl.PollInto(q, 0, s.comps[:0])
	if s.tr != nil {
		s.tr.close(sp)
	}
	return s.comps
}

// account does the shared per-completion bookkeeping: clock, sampler,
// failure count and, while recording, the digest stream and latencies.
// at is the instant the command was due (its latency origin). It reports
// whether the command succeeded.
func (s *session) account(c *host.Completion, at sim.Time) bool {
	s.cmds++
	if c.Done > s.clock {
		s.clock = c.Done
		if s.smp.Due(s.clock) {
			start := time.Now()
			st := telemetry.Collect(s.f)
			s.collectWall += time.Since(start)
			s.smp.Record(s.clock, st)
			s.samples++
		}
	}
	if s.rec {
		var b [33]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(c.Tag))
		b[8] = byte(c.Op)
		binary.LittleEndian.PutUint64(b[9:], uint64(c.LBA))
		binary.LittleEndian.PutUint64(b[17:], uint64(c.N))
		binary.LittleEndian.PutUint64(b[25:], uint64(c.Done))
		s.stream = append(s.stream, b[:]...)
		k := kindOf(c.Op)
		s.lat[k] = append(s.lat[k], int64(c.Done-at))
		s.qdelay = append(s.qdelay, int64(c.QueueDelay()))
	}
	if c.Err != nil {
		s.failed++
		return false
	}
	return true
}

// snapshot is the device-side state at a fixed-pass boundary.
type snapshot struct {
	clock   sim.Time
	samples int64
	stats   telemetry.Stats
	usage   []sim.ResourceUsage
	rt      runtimeCounters
}

func (s *session) snap() snapshot {
	return snapshot{
		clock:   s.clock,
		samples: s.samples,
		stats:   telemetry.Collect(s.f),
		usage:   s.f.Array().Engine().Usage(),
		rt:      readRuntime(),
	}
}

// startRecording begins the fixed pass, preallocating for n commands.
func (s *session) startRecording(n int) snapshot {
	s.rec = true
	s.stream = make([]byte, 0, 33*n)
	for k := range s.lat {
		s.lat[k] = make([]int64, 0, n)
	}
	s.qdelay = make([]int64, 0, n)
	return s.snap()
}

// stopRecording ends the fixed pass and returns its end snapshot and the
// digest: sha256 over the completion stream plus the final Stats.
func (s *session) stopRecording() (snapshot, string) {
	s.rec = false
	end := s.snap()
	h := sha256.New()
	h.Write(s.stream)
	st, _ := json.Marshal(end.stats) // plain structs of numbers: cannot fail
	h.Write(st)
	return end, hex.EncodeToString(h.Sum(nil))
}

// audit runs the device's invariant auditor (Device.CheckInvariants:
// FTL/media cross-checks plus the host controller's queue state).
func (s *session) audit() error {
	s.ctrl.Kick()
	if err := check.Audit(s.f); err != nil {
		return err
	}
	return check.AuditHost(s.ctrl)
}

// pass is the outcome of one measured execution of a device workload.
type pass struct {
	a, b      snapshot
	digest    string
	ops       int64   // commands of the fixed pass
	fixedRate float64 // median host commands per second over the fixed pass's blocks
	rate      float64 // the same over every block, fixed pass and timed phase
	blocks    []float64
	elapsed   time.Duration
}

// measure runs step (one unit of the workload's command stream) through
// the warm-up, then the fixed pass of at least fixed commands with
// recording on, then keeps going until seconds of host time have passed
// since the fixed pass began. Host throughput is the median over blocks of
// block commands. A non-nil rec arms the lifecycle recorder for the fixed
// pass.
func measure(s *session, step func(), warm, fixed int64, seconds float64, rec *obs.Recorder, block int64) pass {
	for s.cmds < warm {
		step()
	}
	if s.tr != nil {
		s.tr.reset()
	}
	if rec != nil {
		s.f.SetRecorder(rec)
	}
	var p pass
	base := s.cmds
	p.a = s.startRecording(int(fixed + 64))
	bt := newBlockTimer(block, s.cmds)
	for s.cmds-base < fixed {
		step()
		bt.tick(s.cmds)
	}
	p.ops = s.cmds - base
	p.b, p.digest = s.stopRecording()
	p.fixedRate = bt.median()
	for time.Since(bt.began).Seconds() < seconds {
		for step(); !bt.tick(s.cmds); step() {
		}
	}
	p.rate = bt.median()
	p.blocks = bt.rates
	p.elapsed = time.Since(bt.began)
	return p
}

// blockTimer measures host throughput in blocks of commands so the run can
// report a median rate that one scheduling hiccup does not move.
type blockTimer struct {
	every int64 // commands per block
	next  int64 // command count that closes the current block
	start time.Time
	base  int64
	rates []float64 // commands per host second, one per closed block
	began time.Time
}

func newBlockTimer(every, cmds int64) *blockTimer {
	now := time.Now()
	return &blockTimer{every: every, next: cmds + every, start: now, base: cmds, began: now}
}

// tick closes a block when cmds reached its end and reports whether it did.
func (b *blockTimer) tick(cmds int64) bool {
	if cmds < b.next {
		return false
	}
	now := time.Now()
	if el := now.Sub(b.start).Seconds(); el > 0 {
		b.rates = append(b.rates, float64(cmds-b.base)/el)
	}
	b.start, b.base, b.next = now, cmds, cmds+b.every
	return true
}

// median of the closed blocks' rates, in commands per second.
func (b *blockTimer) median() float64 {
	r := append([]float64(nil), b.rates...)
	return median(r)
}

// layerCounts derives the per-layer work counts of a fixed pass from the
// two boundary snapshots. ops is the pass's command count; reads and
// writes are its read and write-command counts.
func layerCounts(rep *report, a, b snapshot, ops, reads, writes int64) {
	d := b.stats.Delta(a.stats)
	per := func(x int64, n int64, scale float64) float64 {
		if n == 0 {
			return 0
		}
		return scale * float64(x) / float64(n)
	}
	hostSectorsRead := d.FTL.HostReadBytes / 4096
	hostSectorsWritten := d.FTL.HostWrittenBytes / 4096

	rep.set("ftl.map_fetch_reads_per_kread", "count", per(d.FTL.MapFetchReads, reads, 1000))
	rep.set("ftl.buffer_read_frac", "1", per(d.FTL.BufferReads, hostSectorsRead, 1))
	rep.set("ftl.premature_flushes_per_kwrite", "count", per(d.FTL.PrematureFlushes, writes, 1000))
	rep.set("ftl.staged_frac", "1", per(d.FTL.StagedSectors, hostSectorsWritten, 1))
	rep.set("ftl.combines", "count", float64(d.FTL.Combines))
	rep.set("ftl.pad_sectors", "count", float64(d.FTL.PadSectors))

	rep.set("wbuf.evictions", "count", float64(d.Buffers.Evictions))
	rep.set("wbuf.full_drains", "count", float64(d.Buffers.FullDrain))

	rep.set("slc.gc_collections", "count", float64(d.Staging.Collections))
	rep.set("slc.gc_migrated", "count", float64(d.Staging.Migrated))
	rep.set("slc.gc_migrated_per_staged", "1", per(d.Staging.Migrated, d.Staging.Staged, 1))

	lookups := d.Cache.Hits + d.Cache.Misses
	rep.set("l2pcache.hit_ratio", "1", per(d.Cache.Hits, lookups, 1))
	rep.set("l2pcache.probes_per_lookup", "count", per(d.Cache.Probes, lookups, 1))
	rep.set("l2pcache.evictions", "count", float64(d.Cache.Evictions))

	programs := d.NAND.PUPrograms + d.NAND.PartialPrograms + d.NAND.PageProgramsSLC + d.NAND.MapPrograms
	rep.set("nand.page_reads_per_op", "count", per(d.NAND.PageReads, ops, 1))
	rep.set("nand.programs_per_op", "count", per(programs, ops, 1))
	rep.set("nand.erases", "count", float64(d.NAND.Erases))

	rep.set("zns.resets", "count", float64(d.FTL.ZoneResets))
	rep.set("zns.finishes", "count", float64(d.FTL.ZoneFinishes))

	// Resource work and utilization over the pass's virtual interval.
	var reserves int64
	var chipMax, chanMax float64
	span := float64(b.clock - a.clock)
	for i, u := range b.usage {
		reserves += u.Ops - a.usage[i].Ops
		if span <= 0 {
			continue
		}
		util := float64(u.BusyTime-a.usage[i].BusyTime) / span
		switch {
		case strings.HasPrefix(u.Name, "chip") && util > chipMax:
			chipMax = util
		case strings.HasPrefix(u.Name, "chan") && util > chanMax:
			chanMax = util
		}
	}
	rep.set("sim.reserves_per_op", "count", per(reserves, ops, 1))
	rep.set("nand.chip_util_max", "1", chipMax)
	rep.set("nand.channel_util_max", "1", chanMax)
	if d.NAND.BytesProgrammed > 0 && d.FTL.HostWrittenBytes > 0 {
		rep.set("waf", "1", float64(d.NAND.BytesProgrammed)/float64(d.FTL.HostWrittenBytes))
	}
}

// stageP99 records a lifecycle stage's virtual p99 in µs from the armed
// recorder.
func stageP99(rep *report, r *obs.Recorder, name string, st obs.Stage) {
	s := r.StageLatency(st)
	rep.set(name, "us", float64(s.P99)/1e3)
	rep.note("%s over %d spans", name, s.Count)
}

// stamp is the payload check word of a stamped sector: a function of the
// seed, the LBA and the zone generation (resets so far), so a read that
// returns stale, misplaced or foreign data cannot verify.
func stamp(seed uint64, lba int64, gen int64) uint64 {
	x := seed*0x9E3779B97F4A7C15 ^ uint64(lba)*0xBF58476D1CE4E5B9 ^ uint64(gen)<<48
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x | 1 // never zero, so a zero-filled sector cannot verify
}

// stampBuf writes the stamp into a sector payload.
func stampBuf(buf []byte, v uint64) []byte {
	binary.LittleEndian.PutUint64(buf, v)
	binary.LittleEndian.PutUint64(buf[len(buf)-8:], v)
	return buf
}

// stampOK verifies one sector's payload against its expected stamp.
func stampOK(p []byte, v uint64) bool {
	return len(p) == 4096 && binary.LittleEndian.Uint64(p) == v &&
		binary.LittleEndian.Uint64(p[len(p)-8:]) == v
}
