package main

import (
	"fmt"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/telemetry"
	"github.com/conzone/conzone/internal/units"
)

// zonemix: F2FS-on-zoned-UFS phone traffic on config.Paper(). Six
// hot/warm/cold node/data logs and sixteen slow cold logs each own a zone
// and write it sequentially, fsync every few writes, and wrap with
// Finish + Reset; app 4 KiB random reads of written data arrive as an open
// loop at a fixed virtual rate. The telemetry sampler is armed.
const (
	zmStampEvery = 16                     // every 16th written sector carries a stamp
	zmReadEvery  = 100 * time.Microsecond // app read arrival period (10k IOPS)
	zmSampleInt  = time.Millisecond       // telemetry sampler interval
	zmSlowLogs   = 16
	zmBlock      = 4096
	zmQueueLogs  = 0 // submission queue of the log writers
	zmQueueApp   = 1 // submission queue of the app reads
)

// zonemixSizes are the warm-up and fixed-pass command counts.
func zonemixSizes(short bool) (warm, fixed int64) {
	if short {
		return 5000, 20000
	}
	return 100_000, 200_000
}

// zmLogSpec shapes one log's traffic.
type zmLogSpec struct {
	name           string
	minS, maxS     int64         // sectors per write (4 KiB .. 384 KiB)
	thinkLo        time.Duration // pause after each completion
	thinkHi        time.Duration
	syncLo, syncHi int  // fsync every syncLo..syncHi writes
	data           bool // data logs fill the zone to the end; node logs finish early
}

var zmHotLogs = []zmLogSpec{
	{"hot-node", 1, 4, 500 * time.Microsecond, 2 * time.Millisecond, 1, 8, false},
	{"hot-data", 4, 96, 3 * time.Millisecond, 8 * time.Millisecond, 1, 8, true},
	{"warm-node", 1, 8, 2 * time.Millisecond, 6 * time.Millisecond, 1, 8, false},
	{"warm-data", 8, 96, 6 * time.Millisecond, 15 * time.Millisecond, 1, 8, true},
	{"cold-node", 1, 8, 6 * time.Millisecond, 15 * time.Millisecond, 1, 8, false},
	{"cold-data", 16, 96, 10 * time.Millisecond, 30 * time.Millisecond, 1, 8, true},
}

// zmSlowLog is the shape of the slow cold logs: single-sector synchronous
// writes whose partial program units stay live in SLC for several SLC
// cycles while the hot logs churn it, so SLC GC must migrate them.
var zmSlowLog = zmLogSpec{"slow-cold", 1, 1, 100 * time.Millisecond, 300 * time.Millisecond, 1, 1, true}

type zmPhase uint8

const (
	zmWrite zmPhase = iota
	zmFinish
	zmReset
)

// zmLog is one log's state.
type zmLog struct {
	spec       zmLogSpec
	zone       int
	start, end int64 // zone LBA range [start, end)
	wp         int64 // acknowledged write pointer
	gen        int64 // resets so far (part of the stamp)
	next       sim.Time
	phase      zmPhase
	sinceSync  int
	syncEvery  int

	// Stamp buffers: held ones may still sit in a volatile write buffer;
	// they return to free once the zone's buffer is drained (fsync,
	// finish, reset), since the media copies payloads on program.
	free, held [][]byte
}

type zonemix struct {
	s        *session
	seed     uint64
	rng      *sim.Rand
	logs     []*zmLog
	nextRead sim.Time
	payloads [][]byte
	reads    int64 // reads submitted
	writes   int64 // writes submitted
	skipped  int64 // read arrivals with no written data to read
}

func buildZonemix(seed uint64, tr *tracer) (*zonemix, error) {
	f, err := config.Paper().NewConZone()
	if err != nil {
		return nil, err
	}
	s, err := newSession(f, host.Config{Queues: 2, Depth: 64}, tr)
	if err != nil {
		return nil, err
	}
	smp, err := telemetry.NewSampler(zmSampleInt, 0)
	if err != nil {
		return nil, err
	}
	smp.Prime(0, telemetry.Collect(f))
	s.smp = smp

	w := &zonemix{s: s, seed: seed, rng: sim.NewRand(seed ^ 0x5A4F4E45), nextRead: sim.Time(zmReadEvery),
		payloads: make([][]byte, 0, 96)}
	specs := append([]zmLogSpec(nil), zmHotLogs...)
	for i := 0; i < zmSlowLogs; i++ {
		specs = append(specs, zmSlowLog)
	}
	zcap := f.ZoneCapSectors()
	for i, sp := range specs {
		zone := 4*i + i%2 // spread over the device, alternating write-buffer parity
		if zone >= f.NumZones() {
			return nil, fmt.Errorf("zonemix needs zone %d of %d", zone, f.NumZones())
		}
		l := &zmLog{spec: sp, zone: zone, start: int64(zone) * zcap, end: int64(zone+1) * zcap}
		l.wp = l.start
		l.syncEvery = w.between(sp.syncLo, sp.syncHi)
		l.next = sim.Time(w.duration(0, sp.thinkHi))
		w.logs = append(w.logs, l)
	}
	return w, nil
}

func (w *zonemix) between(lo, hi int) int { return lo + int(w.rng.Int63n(int64(hi-lo+1))) }

func (w *zonemix) duration(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(w.rng.Int63n(int64(hi-lo)+1))
}

// step issues the earliest due command: an app read arrival or the next
// command of the log that is ready first (reads win ties).
func (w *zonemix) step() {
	var next *zmLog
	t := w.nextRead
	for _, l := range w.logs {
		if l.next < t {
			t, next = l.next, l
		}
	}
	if next == nil {
		w.read(t)
		w.nextRead += sim.Time(zmReadEvery)
		return
	}
	w.logStep(next)
}

// read submits one app read of written data, due at t.
func (w *zonemix) read(t sim.Time) {
	s := w.s
	i := int(w.rng.Int63n(int64(len(w.logs))))
	var l *zmLog
	for k := 0; k < len(w.logs); k++ {
		if c := w.logs[(i+k)%len(w.logs)]; c.wp > c.start {
			l = c
			break
		}
	}
	if l == nil {
		w.skipped++
		return
	}
	lba := l.start + w.rng.Int63n(l.wp-l.start)
	w.reads++
	if _, err := s.submit(t, zmQueueApp, host.Request{Op: host.OpRead, LBA: lba, N: 1}); err != nil {
		return
	}
	for i := range s.poll(zmQueueApp) {
		c := &s.comps[i]
		if s.account(c, t) && !w.verify(c, l) {
			s.mismatches++
		}
		s.ctrl.Recycle(c.Data)
	}
}

// verify checks a read against the log that owns its LBA.
func (w *zonemix) verify(c *host.Completion, l *zmLog) bool {
	if c.LBA%zmStampEvery == 0 {
		return len(c.Data) == 1 && stampOK(c.Data[0], stamp(w.seed, c.LBA, l.gen))
	}
	return c.Data == nil || (len(c.Data) == 1 && c.Data[0] == nil)
}

// logStep issues log l's next command at its ready instant and reaps it.
func (w *zonemix) logStep(l *zmLog) {
	s := w.s
	at := l.next
	req := host.Request{Zone: l.zone}
	var n int64
	switch {
	case l.phase == zmReset:
		req.Op = host.OpReset
	case l.phase == zmFinish:
		req.Op = host.OpFinish
	case l.sinceSync >= l.syncEvery:
		req.Op = host.OpFlush
	default:
		n = l.spec.minS + w.rng.Int63n(l.spec.maxS-l.spec.minS+1)
		if rem := l.end - l.wp; n > rem {
			if !l.spec.data {
				// A node log finishes the zone when the next write does not
				// fit; the device pads the remainder out.
				l.phase = zmFinish
				req.Op = host.OpFinish
				n = 0
				break
			}
			n = rem // a data log writes its zone to the end, alignment tail included
		}
		req.Op, req.LBA, req.Payloads = host.OpWrite, l.wp, w.fill(l, n)
		w.writes++
	}
	if _, err := s.submit(at, zmQueueLogs, req); err != nil {
		l.next = at.Add(w.duration(l.spec.thinkLo, l.spec.thinkHi))
		return
	}
	for i := range s.poll(zmQueueLogs) {
		c := &s.comps[i]
		ok := s.account(c, at)
		l.next = c.Done.Add(w.duration(l.spec.thinkLo, l.spec.thinkHi))
		if !ok {
			continue
		}
		switch c.Op {
		case host.OpWrite:
			l.wp += n
			l.sinceSync++
			if l.wp == l.end {
				l.phase = zmFinish
			}
		case host.OpFlush:
			l.sinceSync = 0
			l.syncEvery = w.between(l.spec.syncLo, l.spec.syncHi)
			l.release()
		case host.OpFinish:
			l.phase = zmReset
			l.release()
		case host.OpReset:
			l.wp, l.phase, l.sinceSync = l.start, zmWrite, 0
			l.gen++
			l.release()
		}
	}
}

// fill builds the payload container of an n-sector write at l.wp: stamped
// sectors get a stamp buffer, the rest nil (zeros).
func (w *zonemix) fill(l *zmLog, n int64) [][]byte {
	p := w.payloads[:0]
	for i := int64(0); i < n; i++ {
		lba := l.wp + i
		if lba%zmStampEvery != 0 {
			p = append(p, nil)
			continue
		}
		var b []byte
		if k := len(l.free); k > 0 {
			b, l.free = l.free[k-1], l.free[:k-1]
		} else {
			b = make([]byte, units.Sector)
		}
		l.held = append(l.held, b)
		p = append(p, stampBuf(b, stamp(w.seed, lba, l.gen)))
	}
	w.payloads = p
	return p
}

// release returns the stamp buffers of a drained zone buffer for reuse.
func (l *zmLog) release() {
	l.free = append(l.free, l.held...)
	l.held = l.held[:0]
}

func runZonemix(opt options, rep *report) error {
	warm, fixed := zonemixSizes(opt.short)
	w, setup, err := timeSetup(25, func() (*zonemix, error) { return buildZonemix(opt.seed, nil) })
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
	p := measure(w.s, w.step, warm, fixed, opt.seconds, nil, zmBlock)
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
	reads, writes := int64(len(s.lat[kindRead])), int64(len(s.lat[kindWrite]))
	latencyMetrics(rep, "virt_read", s.lat[kindRead], 0.5, 0.999)
	latencyMetrics(rep, "virt_write", s.lat[kindWrite], 0.999)
	latencyMetrics(rep, "virt_fsync", s.lat[kindFsync], 0.999)
	queueDelayP99(rep, s.qdelay)
	d := p.b.stats.Delta(p.a.stats)
	if span := p.b.clock - p.a.clock; span > 0 {
		bytes := d.FTL.HostReadBytes + d.FTL.HostWrittenBytes
		rep.set("virt_mib_per_s", "MiB/s", float64(bytes)/float64(units.MiB)/(float64(span)/1e9))
	}
	rep.set("host.refused", "count", float64(s.refused))
	layerCounts(rep, p.a, p.b, p.ops, reads, writes)
	runtimeDelta(rep, p.a.rt, p.b.rt, p.ops)
	rep.set("telemetry.samples", "count", float64(p.b.samples-p.a.samples))
	if s.samples > 0 {
		rep.set("telemetry.collect_ns", "ns", float64(s.collectWall.Nanoseconds())/float64(s.samples))
	}
	blockSpread(rep, p.blocks)
	rep.note("fixed pass: %d commands (%d reads, %d writes, %d fsyncs, %d finishes, %d resets) after %d warm-up; %d commands timed in %.2fs; %d read arrivals found no data",
		p.ops, reads, writes, len(s.lat[kindFsync]), len(s.lat[kindFinish]), len(s.lat[kindReset]), warm, s.cmds-warm, p.elapsed.Seconds(), w.skipped)

	if !opt.trace {
		return nil
	}
	return traceDevice(opt, rep, p, func(tr *tracer) (*session, func(), error) {
		w, err := buildZonemix(opt.seed, tr)
		if err != nil {
			return nil, nil, err
		}
		return w.s, w.step, nil
	}, warm, fixed, zmBlock)
}
