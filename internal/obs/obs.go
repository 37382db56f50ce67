// Package obs is the I/O lifecycle telemetry subsystem of the emulator.
// It records structured spans for each host operation as it traverses the
// device's internal machinery — write buffers (including why a premature
// flush happened), SLC staging detours, combine-back programs, L2P cache
// fetches (which strategy, how many flash reads), garbage collection and
// the raw media operations underneath — each span carrying simulated-time
// begin/end instants so latency is attributable per stage.
//
// The Recorder is designed to cost nothing when observation is off: every
// method is nil-safe, so subsystems hold a possibly-nil *Recorder and call
// it unconditionally, and the disabled path performs zero heap allocations
// (guarded by BenchmarkRecordDisabled and a testing.AllocsPerRun test).
// When enabled, events land in a fixed-size ring buffer — a flight
// recorder whose tail the invariant auditor dumps on failure — and feed
// per-stage latency histograms that Snapshot exposes for the Prometheus,
// JSON and Chrome Trace Event exporters in export.go.
package obs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/stats"
)

// Stage identifies the lifecycle stage a span belongs to (paper Figs. 2-5).
type Stage uint8

// Lifecycle stages. Host* spans cover whole host operations; the rest are
// the internal sub-paths the paper's value rests on.
const (
	// StageHostWrite spans a host write from arrival to buffer acceptance.
	StageHostWrite Stage = iota
	// StageHostRead spans a host read from arrival to data delivery.
	StageHostRead
	// StagePrematureFlush spans a write-buffer eviction forced by a
	// zone-switch conflict (paper Fig. 6(b)); Cause records why.
	StagePrematureFlush
	// StageDirectPU spans a full program unit written straight to the
	// zone's reserved superblock (Fig. 3 ①).
	StageDirectPU
	// StageSLCStage spans a partial unit detoured to SLC staging (Fig. 3 ②).
	StageSLCStage
	// StageCombine spans an SLC read-back merged with new data into a full
	// programming unit (Fig. 3 ③).
	StageCombine
	// StageTailStage spans alignment-tail sectors staged to reserved SLC
	// runs (paper §III-E).
	StageTailStage
	// StageConvStage spans a conventional zone's in-place SLC write.
	StageConvStage
	// StageMapFetch spans an L2P entry fetch from flash after a cache
	// miss; Cause is the search strategy, N the flash reads it needed.
	StageMapFetch
	// StageDataRead spans the data-page reads of one host read batch.
	StageDataRead
	// StageL2PLogFlush spans a blocking L2P-log persistence event.
	StageL2PLogFlush
	// StageZoneReset spans a zone reset (erase + mapping drop).
	StageZoneReset
	// StageGCCollect spans one full staging GC cycle (victim to erase).
	StageGCCollect
	// StageGCMigrate spans the valid-sector migration of a GC cycle.
	StageGCMigrate
	// StageGCErase spans the victim erase of a GC cycle.
	StageGCErase
	// StageNANDRead / StageNANDProgram / StageNANDErase span raw media
	// operations; Actor is the chip.
	StageNANDRead
	StageNANDProgram
	StageNANDErase
	// StageHostQueue spans a queued host command from submission to
	// dispatch: the queueing delay the host-interface arbiter imposed
	// (zone write-lock waits and virtual-time ordering). Actor is the
	// submission queue, N the command's sectors.
	StageHostQueue
	// StageNANDReadRetry spans the extra ECC read-retry sense rounds of one
	// faulty page read; Actor is the chip, N the retry rounds.
	StageNANDReadRetry
	// StageFaultRelocate spans a bad-block recovery: re-programming a
	// failed superblock's data into a spare and retiring the old blocks.
	// Actor is the retired superblock, N the sectors copied.
	StageFaultRelocate
	// StageZoneFinish spans a zone finish: the buffer drain plus the
	// charged pad-out of the zone's unwritten remainder. LBA is the
	// pre-finish write pointer, N the padded sectors.
	StageZoneFinish

	// NumStages bounds the per-stage aggregation arrays.
	NumStages
)

var stageNames = [NumStages]string{
	StageHostWrite:      "host_write",
	StageHostRead:       "host_read",
	StagePrematureFlush: "premature_flush",
	StageDirectPU:       "direct_pu",
	StageSLCStage:       "slc_stage",
	StageCombine:        "combine",
	StageTailStage:      "tail_stage",
	StageConvStage:      "conv_stage",
	StageMapFetch:       "map_fetch",
	StageDataRead:       "data_read",
	StageL2PLogFlush:    "l2p_log_flush",
	StageZoneReset:      "zone_reset",
	StageGCCollect:      "gc_collect",
	StageGCMigrate:      "gc_migrate",
	StageGCErase:        "gc_erase",
	StageNANDRead:       "nand_read",
	StageNANDProgram:    "nand_program",
	StageNANDErase:      "nand_erase",
	StageHostQueue:      "host_queue",
	StageNANDReadRetry:  "nand_read_retry",
	StageFaultRelocate:  "fault_relocate",
	StageZoneFinish:     "zone_finish",
}

// String returns the stage's stable snake_case name, used as the metric
// label by every exporter.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage_%d", uint8(s))
}

// Cause qualifies a span: why a flush happened, or which L2P search
// strategy a map fetch used.
type Cause uint8

// Span causes.
const (
	// CauseNone marks spans that need no qualification.
	CauseNone Cause = iota
	// CauseZoneConflict: the write buffer was occupied by another zone
	// and its data had to be flushed prematurely.
	CauseZoneConflict
	// CauseBufferFull: the buffer reached one superpage and drained.
	CauseBufferFull
	// CauseHostFlush: an explicit host flush / zone close / zone finish.
	CauseHostFlush
	// CauseConvDrain: a conventional zone's buffered run could not absorb
	// a non-contiguous write and drained first.
	CauseConvDrain
	// CauseBitmap / CauseMultiple / CausePinned tag map-fetch spans with
	// the search strategy that resolved the miss.
	CauseBitmap
	CauseMultiple
	CausePinned
	// CauseFinishPad: the flush carries zero-fill pad sectors charged by a
	// zone finish, not host data.
	CauseFinishPad

	// NumCauses bounds the per-cause aggregation arrays.
	NumCauses
)

var causeNames = [NumCauses]string{
	CauseNone:         "",
	CauseZoneConflict: "zone_conflict",
	CauseBufferFull:   "buffer_full",
	CauseHostFlush:    "host_flush",
	CauseConvDrain:    "conv_drain",
	CauseBitmap:       "bitmap",
	CauseMultiple:     "multiple",
	CausePinned:       "pinned",
	CauseFinishPad:    "finish_pad",
}

// String returns the cause's stable snake_case name ("" for CauseNone).
func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return fmt.Sprintf("cause_%d", uint8(c))
}

// Event is one recorded lifecycle span. Begin and End are simulated-time
// instants, so End-Begin is the stage's contribution in virtual time.
type Event struct {
	Seq   uint64   `json:"seq"`
	Stage Stage    `json:"-"`
	Cause Cause    `json:"-"`
	Begin sim.Time `json:"begin_ns"`
	End   sim.Time `json:"end_ns"`
	Zone  int32    `json:"zone"`  // -1 when not zone-scoped
	Actor int32    `json:"actor"` // chip / GC victim superblock / -1
	LBA   int64    `json:"lba"`   // -1 when not address-scoped
	N     int64    `json:"n"`     // sectors, flash fetches, or bytes (NAND)
}

// Duration returns the span length in virtual time.
func (e Event) Duration() sim.Duration { return e.End.Sub(e.Begin) }

// String renders the event for flight-recorder dumps.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s", e.Stage)
	if e.Cause != CauseNone {
		fmt.Fprintf(&b, " cause=%s", e.Cause)
	}
	fmt.Fprintf(&b, " [%v +%v]", e.Begin, e.Duration())
	if e.Zone >= 0 {
		fmt.Fprintf(&b, " zone=%d", e.Zone)
	}
	if e.Actor >= 0 {
		fmt.Fprintf(&b, " actor=%d", e.Actor)
	}
	if e.LBA >= 0 {
		fmt.Fprintf(&b, " lba=%d", e.LBA)
	}
	if e.N != 0 {
		fmt.Fprintf(&b, " n=%d", e.N)
	}
	return b.String()
}

// DefaultRingSize is the flight-recorder capacity used when a caller asks
// for a non-positive size.
const DefaultRingSize = 4096

// Recorder collects lifecycle events. A nil *Recorder is the disabled
// state: every method no-ops (and Record performs zero allocations), so
// instrumented subsystems never need to branch on whether observation is
// on. A Recorder is synchronized by its owner exactly like the FTL it
// observes: one operation at a time.
type Recorder struct {
	ring   []Event
	seq    uint64 // total events ever recorded
	hist   [NumStages]*stats.Histogram
	counts [NumStages]int64
	causes [NumStages][NumCauses]int64
}

// NewRecorder returns a Recorder whose flight-recorder ring keeps the last
// ringSize events (DefaultRingSize when ringSize <= 0).
func NewRecorder(ringSize int) *Recorder {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	r := &Recorder{ring: make([]Event, ringSize)}
	for i := range r.hist {
		r.hist[i] = stats.NewHistogram()
	}
	return r
}

// Enabled reports whether events are being collected.
func (r *Recorder) Enabled() bool { return r != nil }

// Record stores one event. Nil-safe and allocation-free: the event is
// copied into a preallocated ring slot and folded into fixed-size
// aggregates. e.Seq is assigned by the recorder.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	if e.Stage >= NumStages {
		e.Stage = NumStages - 1
	}
	if e.Cause >= NumCauses {
		e.Cause = NumCauses - 1
	}
	e.Seq = r.seq
	r.ring[r.seq%uint64(len(r.ring))] = e
	r.seq++
	r.counts[e.Stage]++
	r.causes[e.Stage][e.Cause]++
	r.hist[e.Stage].Record(e.End.Sub(e.Begin))
}

// Recorded returns how many events have ever been recorded.
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	return int64(r.seq)
}

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() int64 {
	if r == nil || r.seq <= uint64(len(r.ring)) {
		return 0
	}
	return int64(r.seq - uint64(len(r.ring)))
}

// StageCount returns the recorded spans of one stage.
func (r *Recorder) StageCount(s Stage) int64 {
	if r == nil || s >= NumStages {
		return 0
	}
	return r.counts[s]
}

// CauseCount returns the recorded spans of one (stage, cause) pair.
func (r *Recorder) CauseCount(s Stage, c Cause) int64 {
	if r == nil || s >= NumStages || c >= NumCauses {
		return 0
	}
	return r.causes[s][c]
}

// StageLatency returns the latency summary of one stage.
func (r *Recorder) StageLatency(s Stage) stats.Summary {
	if r == nil || s >= NumStages {
		return stats.Summary{}
	}
	return r.hist[s].Summarize()
}

// Events returns the retained events, oldest first. The slice is a copy.
func (r *Recorder) Events() []Event {
	return r.Tail(int(^uint(0) >> 1))
}

// Tail returns up to n of the most recent events, oldest first.
func (r *Recorder) Tail(n int) []Event {
	if r == nil || n <= 0 || r.seq == 0 {
		return nil
	}
	size := uint64(len(r.ring))
	have := r.seq
	if have > size {
		have = size
	}
	if uint64(n) < have {
		have = uint64(n)
	}
	out := make([]Event, 0, have)
	for i := r.seq - have; i < r.seq; i++ {
		out = append(out, r.ring[i%size])
	}
	return out
}

// Reset clears all recorded events and aggregates, keeping the ring size.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.seq = 0
	r.counts = [NumStages]int64{}
	r.causes = [NumStages][NumCauses]int64{}
	for i := range r.hist {
		r.hist[i].Reset()
	}
}

// FormatTail renders the last n events, one per line, for post-mortem
// dumps (the invariant auditor appends it to violation messages). Returns
// "" when the recorder is nil or empty.
func FormatTail(r *Recorder, n int) string {
	evs := r.Tail(n)
	if len(evs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&b, "  #%-6d %s\n", e.Seq, e)
	}
	return b.String()
}

// Fingerprint returns a SHA-256 digest over the recorder's complete
// observable state: the lifetime event count, every retained ring event in
// order (all fields), and the per-stage / per-(stage, cause) aggregates
// including each stage's latency summary. Two recorders fed identical
// event streams produce identical fingerprints, which is how the
// determinism tests assert that telemetry and trace output stay
// byte-identical across queue depths. Nil-safe: a nil recorder
// fingerprints to the digest of an empty state.
func (r *Recorder) Fingerprint() [32]byte {
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	if r == nil {
		return sha256.Sum256(nil)
	}
	w(r.seq)
	size := uint64(len(r.ring))
	have := r.seq
	if have > size {
		have = size
	}
	for i := r.seq - have; i < r.seq; i++ {
		e := &r.ring[i%size]
		w(e.Seq)
		w(uint64(e.Stage))
		w(uint64(e.Cause))
		w(uint64(e.Begin))
		w(uint64(e.End))
		w(uint64(uint32(e.Zone)))
		w(uint64(uint32(e.Actor)))
		w(uint64(e.LBA))
		w(uint64(e.N))
	}
	for s := Stage(0); s < NumStages; s++ {
		w(uint64(r.counts[s]))
		for c := Cause(0); c < NumCauses; c++ {
			w(uint64(r.causes[s][c]))
		}
		sum := r.hist[s].Summarize()
		w(uint64(sum.Count))
		w(uint64(sum.Sum))
		w(uint64(sum.Min))
		w(uint64(sum.Max))
		w(uint64(sum.P50))
		w(uint64(sum.P95))
		w(uint64(sum.P99))
		w(uint64(sum.P999))
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
