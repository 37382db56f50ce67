package conzone

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/ftl"
	"github.com/conzone/conzone/internal/host"
	"github.com/conzone/conzone/internal/nand"
	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// qdTrace captures everything observable about one workload run: the
// completion stream in tag order (every field, including read payload
// bytes), a full media read-back, the FTL and NAND counter snapshots, and
// the telemetry recorder's fingerprint.
type qdTrace struct {
	completions [32]byte // sha256 over the tag-ordered completion stream
	media       [32]byte // sha256 over a full device read-back
	stats       ftl.Stats
	counters    nand.Counters
	telemetry   [32]byte // obs.Recorder fingerprint
	polled      int
}

// tagDigest is one completion's digest, keyed by tag so the stream can be
// compared independently of poll order.
type tagDigest struct {
	tag host.Tag
	sum [32]byte
}

// qdWorkload drives a seeded mix of read bursts — single- and multi-sector
// reads served from media, the write buffer, the L2P cache and unwritten
// space — between write-class fences (writes, flushes, resets). readQD is
// how many reads are submitted back to back before the test polls. The
// op stream and every submission instant are independent of readQD: the
// clock only catches up with completions at fences, where every mode has
// drained everything.
func qdWorkload(t *testing.T, readQD int) qdTrace {
	t.Helper()
	cfg := config.Small()
	f, err := ftl.New(cfg.Geometry, cfg.Latency, cfg.FTL)
	if err != nil {
		t.Fatalf("qd=%d: build FTL: %v", readQD, err)
	}
	f.SetRecorder(obs.NewRecorder(4096))
	ctrl, err := host.New(f, host.Config{Queues: 1, Depth: 96})
	if err != nil {
		t.Fatalf("qd=%d: build controller: %v", readQD, err)
	}

	var tr qdTrace
	var digests []tagDigest
	var word [8]byte
	hashCompletion := func(c *host.Completion) {
		tr.polled++
		h := sha256.New()
		for _, v := range []int64{int64(c.Tag), int64(c.Queue), int64(c.Op), int64(c.Zone), c.LBA, c.N,
			int64(c.Submitted), int64(c.Dispatched), int64(c.Done), int64(c.Status)} {
			binary.LittleEndian.PutUint64(word[:], uint64(v))
			h.Write(word[:])
		}
		if c.Err != nil {
			h.Write([]byte(c.Err.Error()))
		}
		for _, sec := range c.Data {
			if sec == nil {
				h.Write([]byte{0xEE}) // unwritten marker
				continue
			}
			h.Write(sec)
		}
		d := tagDigest{tag: c.Tag}
		h.Sum(d.sum[:0])
		digests = append(digests, d)
	}

	var now, maxDone sim.Time
	inflight := 0
	drainAll := func() {
		for inflight > 0 {
			comps := ctrl.Poll(0, inflight)
			if len(comps) == 0 {
				t.Fatalf("qd=%d: no completion with %d in flight", readQD, inflight)
			}
			for i := range comps {
				c := &comps[i]
				if c.Err != nil {
					t.Fatalf("qd=%d: %v lba %d: %v", readQD, c.Op, c.LBA, c.Err)
				}
				if c.Done > maxDone {
					maxDone = c.Done
				}
				hashCompletion(c)
				inflight--
			}
		}
	}
	fence := func() {
		drainAll()
		if maxDone > now {
			now = maxDone
		}
	}
	submit := func(req host.Request) {
		if _, err := ctrl.Submit(now, 0, req); err != nil {
			t.Fatalf("qd=%d: submit %v lba %d: %v", readQD, req.Op, req.LBA, err)
		}
		inflight++
		now = now.Add(sim.Duration(1000))
	}
	read := func(lba, n int64) {
		submit(host.Request{Op: host.OpRead, LBA: lba, N: n})
		if inflight >= readQD {
			drainAll()
		}
	}

	zoneCap := f.ZoneCapSectors()
	sbCap := f.Geometry().SuperblockBytes() / units.Sector
	numZones := f.NumZones()
	rng := rand.New(rand.NewSource(0xD15C))
	payload := func(lba int64) [][]byte {
		s := make([]byte, units.Sector)
		binary.LittleEndian.PutUint64(s, uint64(lba)^0xA5A5A5A5)
		s[len(s)-1] = byte(lba >> 3)
		return [][]byte{s}
	}

	// Phase 1: seed three zones with data — partially, so reads will mix
	// mapped sectors, write-buffered sectors and unwritten tails.
	written := make([]int64, numZones)
	for z := 0; z < 3 && z < numZones; z++ {
		n := sbCap/2 + int64(z)*7
		for off := int64(0); off < n; off++ {
			if inflight >= 64 {
				fence()
			}
			lba := int64(z)*zoneCap + off
			submit(host.Request{Op: host.OpWrite, LBA: lba, Payloads: payload(lba)})
		}
		written[z] = n
		fence()
	}
	submit(host.Request{Op: host.OpFlush, Zone: -1})
	fence()

	// Phase 2: alternating read bursts and write-class fences.
	for round := 0; round < 6; round++ {
		for i := 0; i < 48; i++ {
			z := rng.Intn(3)
			span := written[z] + 16 // overhang into unwritten space sometimes
			lba := int64(z)*zoneCap + rng.Int63n(span)
			n := int64(1)
			if i%5 == 0 {
				n = 4 + rng.Int63n(5) // multi-sector: page-run batching
				if rem := int64(z+1)*zoneCap - lba; n > rem {
					n = rem
				}
			}
			read(lba, n)
		}
		fence()

		// Fence with write-class traffic; leave some of it buffered so the
		// next burst hits the write buffer.
		z := rng.Intn(3)
		if written[z] >= sbCap-8 {
			submit(host.Request{Op: host.OpReset, Zone: z})
			written[z] = 0
		}
		for k := 0; k < 3; k++ {
			lba := int64(z)*zoneCap + written[z]
			submit(host.Request{Op: host.OpWrite, LBA: lba, Payloads: payload(lba)})
			written[z]++
		}
		if round%2 == 1 {
			submit(host.Request{Op: host.OpFlush, Zone: z})
		}
		fence()
	}

	// Phase 3: a final burst, then a flush-all and a full drain.
	for i := 0; i < 40; i++ {
		z := rng.Intn(3)
		read(int64(z)*zoneCap+rng.Int63n(written[z]+1), 1)
	}
	fence()
	submit(host.Request{Op: host.OpFlush, Zone: -1})
	fence()
	sort.Slice(digests, func(i, j int) bool { return digests[i].tag < digests[j].tag })
	h := sha256.New()
	for _, d := range digests {
		h.Write(d.sum[:])
	}
	h.Sum(tr.completions[:0])

	// Full media read-back, zone by zone, one read at a time.
	h.Reset()
	for z := 0; z < 3 && z < numZones; z++ {
		for off := int64(0); off < sbCap; off += 8 {
			n := min(int64(8), sbCap-off)
			c, ok := ctrl.Wait(mustSubmit(t, ctrl, now, host.Request{Op: host.OpRead, LBA: int64(z)*zoneCap + off, N: n}))
			if !ok || c.Err != nil {
				t.Fatalf("qd=%d: read-back lba %d: %v", readQD, c.LBA, c.Err)
			}
			for _, sec := range c.Data {
				if sec == nil {
					h.Write([]byte{0xEE})
					continue
				}
				h.Write(sec)
			}
		}
	}
	h.Sum(tr.media[:0])

	tr.stats = f.Stats()
	tr.counters = f.Array().Counters()
	tr.telemetry = f.Recorder().Fingerprint()
	return tr
}

func mustSubmit(t *testing.T, ctrl *host.Controller, at sim.Time, req host.Request) host.Tag {
	t.Helper()
	tag, err := ctrl.Submit(at, 0, req)
	if err != nil {
		t.Fatalf("submit %v lba %d: %v", req.Op, req.LBA, err)
	}
	return tag
}

// TestQueueDepthDeterminism pins that queue depth changes only when the
// host polls, never what the device does: QD32 read bursts over the same
// op stream as QD1 give the same completions (payload bytes included),
// the same media contents, the same counters and the same telemetry.
func TestQueueDepthDeterminism(t *testing.T) {
	base := qdWorkload(t, 1)
	if base.polled == 0 {
		t.Fatal("QD1 run polled no completions")
	}
	got := qdWorkload(t, 32)
	if got.completions != base.completions {
		t.Errorf("completion stream diverged from QD1 (%d vs %d completions)", got.polled, base.polled)
	}
	if got.media != base.media {
		t.Error("media read-back diverged from QD1")
	}
	if got.stats != base.stats {
		t.Errorf("FTL stats diverged:\n got %+v\nwant %+v", got.stats, base.stats)
	}
	if got.counters != base.counters {
		t.Errorf("NAND counters diverged:\n got %+v\nwant %+v", got.counters, base.counters)
	}
	if got.telemetry != base.telemetry {
		t.Error("telemetry fingerprint diverged from QD1")
	}
}
