package nand

import (
	"github.com/conzone/conzone/internal/units"
)

// Payload storage is pooled: every stored sector occupies one sector-sized
// slab drawn from the array's own freelist, and programming, erasing or
// overwriting a sector releases its slab back to that freelist. On the
// steady state of a write-heavy workload the media model therefore
// allocates nothing — slabs cycle between the freelist and the payload
// table — which is what keeps the emulator's wall-clock throughput at the
// ROADMAP's "as fast as the hardware allows" target instead of fighting the
// garbage collector over one fresh 4 KiB buffer per programmed sector.
//
// The freelist is deliberately per-Array rather than a shared sync.Pool:
// a sync.Pool is a GC victim cache, so any allocation churn elsewhere in
// the process (a benchmark driver's payload arena, a fleet of sibling
// devices) periodically empties it and every subsequent program re-allocates
// and re-zeroes its slab — the stray 1 alloc/op + ~4 KiB/op the seqwrite
// benchmarks used to show. A plain per-device stack never interacts with
// the collector, costs no atomics, and keeps devices fully isolated (the
// fleet device-isolation audit relies on that).
//
// The flip side is a borrow discipline: Array.Payload returns the live slab,
// and once the sector's block is erased the slab is recycled and may be
// reprogrammed with unrelated data. See Payload and PayloadCopy.

// slabArena owns every sector-sized payload slab an Array has allocated.
// Sectors name their slab by id — 1-based, so 0 means no payload — which
// keeps per-sector state pointer-free. Released ids go on a freelist.
type slabArena struct {
	mem  [][]byte // slab id-1
	free []int32
}

// get returns the id of an unused slab. Its contents are unspecified;
// callers overwrite it fully.
func (p *slabArena) get() int32 {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id
	}
	p.mem = append(p.mem, make([]byte, units.Sector))
	return int32(len(p.mem))
}

// put releases a slab id obtained from get.
func (p *slabArena) put(id int32) { p.free = append(p.free, id) }

// bytes returns slab id's buffer, or nil for id 0.
func (p *slabArena) bytes(id int32) []byte {
	if id == 0 {
		return nil
	}
	return p.mem[id-1]
}

// setPayload stores one sector's payload in slot: the previous slab, if
// any, is released (overwrite release), and a non-nil src is copied into a
// fresh slab so the caller's buffer is never retained.
func (a *Array) setPayload(slot *int32, src []byte) {
	if old := *slot; old != 0 {
		a.slabs.put(old)
	}
	if src == nil {
		*slot = 0
		return
	}
	id := a.slabs.get()
	copy(a.slabs.bytes(id), src)
	*slot = id
}

// releaseSectors returns an erased block's slabs (erase release) and then
// its cleared sector state to the array's freelists.
func (a *Array) releaseSectors(s *blockSectors) {
	for _, id := range s.slab {
		if id != 0 {
			a.slabs.put(id)
		}
	}
	clear(s.slab)
	clear(s.written)
	for i := range s.oobLPA {
		s.oobLPA[i] = -1
	}
	clear(s.oobSeq)
	a.freeSects = append(a.freeSects, s)
}
