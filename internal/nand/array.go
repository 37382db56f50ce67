package nand

import (
	"fmt"
	"time"

	"github.com/conzone/conzone/internal/obs"
	"github.com/conzone/conzone/internal/sim"
	"github.com/conzone/conzone/internal/units"
)

// blockInfo is the per-block metadata the hot paths consult instead of
// re-deriving media mode, page count and latency through Geometry's
// value-receiver methods (copying the geometry struct per call). It is
// immutable after construction.
type blockInfo struct {
	pages int
	media Media
	lat   Latency
}

// blockState tracks the NAND-physics state of one per-chip block: how far
// it has been programmed (blocks are append-only between erases) and how
// often it has been erased.
type blockState struct {
	nextSector int // next programmable sector offset within the block
	eraseCount int64
}

// blockSectors is the per-sector media state of one programmed block. A
// block gets one on its first program and gives it back to the array's
// freelist, cleared, when erased, so a device holds sector state only for
// the blocks that hold data — a fresh device touches a few superblocks of
// a large array — and steady-state program/erase cycles allocate nothing.
//
// The record holds no pointers — payloads are named by slab id (see
// slab.go) — so the garbage collector never scans it.
type blockSectors struct {
	slab    []int32 // payload slab id; 0 = no stored payload
	written []bool  // programmed at least once since erase
	oobLPA  []int64 // -1 = never stamped since erase
	oobSeq  []int64
}

func newBlockSectors(n int64) *blockSectors {
	oob := make([]int64, 2*n)
	s := &blockSectors{
		slab:    make([]int32, n),
		written: make([]bool, n),
		oobLPA:  oob[:n:n],
		oobSeq:  oob[n:],
	}
	for i := range s.oobLPA {
		s.oobLPA[i] = -1
	}
	return s
}

// Counters accumulates raw media activity for reporting and WAF accounting.
type Counters struct {
	PageReads       int64 // page sense operations
	PUPrograms      int64 // full program-unit operations on normal media
	PartialPrograms int64 // 4 KiB partial programs on SLC
	PageProgramsSLC int64 // whole-page SLC program operations
	MapPrograms     int64 // L2P-log flushes into the map region
	Erases          int64
	BytesRead       int64 // payload bytes transferred to the host side
	BytesProgrammed int64 // payload bytes programmed into media
}

// Delta returns the counter changes from prev to c (interval reporting).
func (c Counters) Delta(prev Counters) Counters {
	return Counters{
		PageReads:       c.PageReads - prev.PageReads,
		PUPrograms:      c.PUPrograms - prev.PUPrograms,
		PartialPrograms: c.PartialPrograms - prev.PartialPrograms,
		PageProgramsSLC: c.PageProgramsSLC - prev.PageProgramsSLC,
		MapPrograms:     c.MapPrograms - prev.MapPrograms,
		Erases:          c.Erases - prev.Erases,
		BytesRead:       c.BytesRead - prev.BytesRead,
		BytesProgrammed: c.BytesProgrammed - prev.BytesProgrammed,
	}
}

// Array is the flash media model: per-chip and per-channel timing resources
// plus programmed-state and payload storage.
type Array struct {
	geo      Geometry
	lat      LatencyTable
	engine   *sim.Engine
	chips    []*sim.Resource
	channels []*sim.Resource
	blocks   [][]blockState // [chip][block]
	counters Counters
	chanTab  []*sim.Resource // per-chip channel resource (chanOf without the modulo)
	meta     []blockInfo     // per-block media/pages/latency, derived at construction
	xferTab  []time.Duration // channel transfer time by n/Sector, for sector multiples up to one PU
	slabs    slabArena       // per-array payload slabs and their freelist (see slab.go)
	obs      *obs.Recorder   // nil when observation is off
	faults   FaultInjector   // nil = media never fails

	// lastProgStart models each chip's cache register (cache-program
	// pipeline): a data transfer for program n+1 may begin once program n
	// has moved its data out of the register, i.e. once program n has
	// started. This bounds the program pipeline at one in-flight transfer
	// per chip without serialising transfers behind tPROG.
	lastProgStart []sim.Time

	// Power-loss model (see power.go): when armed, the first operation
	// completing past cutAt is torn and the array dies. powerCuts counts
	// fired cuts and recoveries counts PowerOn calls; both accumulate
	// across remounts because the array itself survives them.
	cutArmed   bool
	cutAt      sim.Time
	dead       bool
	powerCuts  int64
	recoveries int64

	// Per-sector state by linear block (chip*BlocksPerChip + block): nil
	// until the block is first programmed, and again after each erase.
	// stride is the number of linear sectors a block spans; total is the
	// whole linear sector space. freeSects recycles erased blocks' state.
	sects     []*blockSectors
	freeSects []*blockSectors
	stride    int64
	total     int64

	seq int64 // global program sequence counter (see power.go)

	// Durable metadata journal: resets and retirements (see power.go).
	journal []MetaRecord
}

// NewArray builds an array for a validated geometry and latency table.
func NewArray(geo Geometry, lat LatencyTable, engine *sim.Engine) (*Array, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	if engine == nil {
		engine = sim.NewEngine()
	}
	a := &Array{geo: geo, lat: lat, engine: engine}
	for c := 0; c < geo.Channels; c++ {
		a.channels = append(a.channels, engine.NewResource(fmt.Sprintf("chan%d", c)))
	}
	for c := 0; c < geo.Chips(); c++ {
		a.chips = append(a.chips, engine.NewResource(fmt.Sprintf("chip%d", c)))
	}
	a.chanTab = make([]*sim.Resource, geo.Chips())
	for c := range a.chanTab {
		a.chanTab[c] = a.channels[geo.ChannelOf(c)]
	}
	a.meta = make([]blockInfo, geo.BlocksPerChip)
	for b := range a.meta {
		m := geo.MediaOf(b)
		a.meta[b] = blockInfo{pages: geo.PagesIn(b), media: m, lat: lat.For(m)}
	}
	a.xferTab = make([]time.Duration, geo.ProgramUnit/units.Sector+1)
	for i := range a.xferTab {
		a.xferTab[i] = units.TransferTime(int64(i)*units.Sector, geo.ChannelMiBps)
	}
	a.blocks = make([][]blockState, geo.Chips())
	for c := range a.blocks {
		a.blocks[c] = make([]blockState, geo.BlocksPerChip)
	}
	a.lastProgStart = make([]sim.Time, geo.Chips())
	a.sects = make([]*blockSectors, geo.Chips()*geo.BlocksPerChip)
	a.stride = int64(geo.maxPagesPerBlock() * geo.SectorsPerPage())
	a.total = geo.TotalSectors()
	return a, nil
}

// sectors returns the state of ppa's block (nil when it holds no
// programmed sector) and ppa's offset within it. ppa must be in range.
func (a *Array) sectors(ppa PPA) (*blockSectors, int64) {
	lb := int64(ppa) / a.stride
	return a.sects[lb], int64(ppa) - lb*a.stride
}

// sectorsFor is sectors for a block about to be programmed or stamped: it
// gives the block its state first if it has none.
func (a *Array) sectorsFor(ppa PPA) (*blockSectors, int64) {
	lb := int64(ppa) / a.stride
	s := a.sects[lb]
	if s == nil {
		if n := len(a.freeSects); n > 0 {
			s = a.freeSects[n-1]
			a.freeSects[n-1] = nil
			a.freeSects = a.freeSects[:n-1]
		} else {
			s = newBlockSectors(a.stride)
		}
		a.sects[lb] = s
	}
	return s, int64(ppa) - lb*a.stride
}

// Geometry returns the array's geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Latencies returns the timing table in use.
func (a *Array) Latencies() LatencyTable { return a.lat }

// Engine returns the simulation engine the array reserves time on.
func (a *Array) Engine() *sim.Engine { return a.engine }

// Counters returns a snapshot of the media activity counters.
func (a *Array) Counters() Counters { return a.counters }

// SetRecorder attaches a lifecycle recorder; nil disables media spans.
func (a *Array) SetRecorder(r *obs.Recorder) { a.obs = r }

// record emits one media span (nil-safe via the recorder).
func (a *Array) record(stage obs.Stage, begin, end sim.Time, chip int, n int64) {
	if a.obs == nil {
		return
	}
	a.obs.Record(obs.Event{
		Stage: stage, Begin: begin, End: end,
		Zone: -1, Actor: int32(chip), LBA: -1, N: n,
	})
}

// EraseCount returns how many times the given per-chip block was erased.
func (a *Array) EraseCount(chip, block int) int64 {
	return a.blocks[chip][block].eraseCount
}

// PreWear ages every block of the array by the given erase count, as if the
// device had already lived through that many program/erase cycles. It models
// a used consumer device entering an experiment: wear reports start from the
// aged baseline and a wear-coupled fault injector sees the elevated counts
// from the first operation. Media contents are untouched. Negative values
// are ignored.
func (a *Array) PreWear(erases int64) {
	if erases <= 0 {
		return
	}
	for c := range a.blocks {
		for b := range a.blocks[c] {
			a.blocks[c][b].eraseCount += erases
		}
	}
}

func (a *Array) checkAddr(chip, block int) error {
	if chip < 0 || chip >= len(a.chips) {
		return fmt.Errorf("nand: chip %d out of range [0,%d)", chip, len(a.chips))
	}
	if block < 0 || block >= a.geo.BlocksPerChip {
		return fmt.Errorf("nand: block %d out of range [0,%d)", block, a.geo.BlocksPerChip)
	}
	return nil
}

func (a *Array) chanOf(chip int) *sim.Resource {
	return a.chanTab[chip]
}

// transfer reserves the chip's channel for moving n payload bytes starting
// no earlier than 'ready' and returns the transfer completion time. Sector
// multiples up to one program unit — every size the device issues — come
// from the precomputed table; anything else recomputes.
func (a *Array) transfer(ready sim.Time, chip int, n int64) sim.Time {
	var d time.Duration
	if s := n / units.Sector; n&(units.Sector-1) == 0 && s >= 0 && s < int64(len(a.xferTab)) {
		d = a.xferTab[s]
	} else {
		d = units.TransferTime(n, a.geo.ChannelMiBps)
	}
	_, end := a.chanOf(chip).Reserve(ready, d)
	return end
}

// ReadPage senses one page and transfers xferBytes of it to the controller.
// xferBytes may be less than the page size when only some sectors are
// needed; the sense still costs the full tR. It returns the completion time.
//
// With a fault injector attached the sense may need extra read-retry rounds
// (each a full tR), and may ultimately fail with ErrUncorrectable — the
// returned time then covers the exhausted retries.
func (a *Array) ReadPage(at sim.Time, chip, block, page int, xferBytes int64) (sim.Time, error) {
	return a.readPage(at, chip, block, page, xferBytes, false)
}

// ReadPageReliable is ReadPage for the device's internal movement paths
// (GC migration, combines, bad-block relocation): read-retry latency is
// still charged, but the read always recovers the data — acknowledged host
// data is never lost to a transient read fault inside the device.
func (a *Array) ReadPageReliable(at sim.Time, chip, block, page int, xferBytes int64) (sim.Time, error) {
	return a.readPage(at, chip, block, page, xferBytes, true)
}

func (a *Array) readPage(at sim.Time, chip, block, page int, xferBytes int64, reliable bool) (sim.Time, error) {
	if err := a.checkAddr(chip, block); err != nil {
		return at, err
	}
	bm := &a.meta[block]
	if page < 0 || page >= bm.pages {
		return at, fmt.Errorf("nand: page %d out of range [0,%d) in %v block", page, bm.pages, bm.media)
	}
	if xferBytes < 0 || xferBytes > a.geo.PageSize {
		return at, fmt.Errorf("nand: transfer %d outside page of %d bytes", xferBytes, a.geo.PageSize)
	}
	media := bm.media
	lat := bm.lat
	_, senseEnd := a.chips[chip].Reserve(at, lat.Read)
	if err := a.gate(senseEnd); err != nil {
		return senseEnd, err
	}
	if a.faults != nil {
		retries, unc := a.faults.ReadFault(media, chip, block, a.blocks[chip][block].eraseCount)
		if retries > 0 {
			retryStart := senseEnd
			for r := 0; r < retries; r++ {
				_, senseEnd = a.chips[chip].Reserve(senseEnd, lat.Read)
			}
			a.record(obs.StageNANDReadRetry, retryStart, senseEnd, chip, int64(retries))
		}
		if unc && !reliable {
			// ECC gave up: no data is transferred; the time spent sensing
			// and retrying is still charged to the chip.
			a.counters.PageReads++
			a.engine.Observe(senseEnd)
			return senseEnd, fmt.Errorf("nand: read %d/%d page %d: %w", chip, block, page, ErrUncorrectable)
		}
	}
	done := a.transfer(senseEnd, chip, xferBytes)
	a.counters.PageReads++
	a.counters.BytesRead += xferBytes
	a.engine.Observe(done)
	a.record(obs.StageNANDRead, at, done, chip, xferBytes)
	return done, nil
}

// ChargeMapRead models fetching one L2P mapping entry group from the map
// region of a chip: a page sense in SLC mode plus the transfer of a single
// mapping sector. It exists so the FTL can account translation-table reads
// without mutating block state (the paper defers map persistence to future
// work, §III-E).
func (a *Array) ChargeMapRead(at sim.Time, chip int) (sim.Time, error) {
	if chip < 0 || chip >= a.geo.Chips() {
		return at, fmt.Errorf("nand: chip %d out of range", chip)
	}
	lat := a.lat.For(SLCMode)
	_, senseEnd := a.chips[chip].Reserve(at, lat.Read)
	if err := a.gate(senseEnd); err != nil {
		return senseEnd, err
	}
	done := a.transfer(senseEnd, chip, units.Sector)
	a.counters.PageReads++
	a.counters.BytesRead += units.Sector
	a.engine.Observe(done)
	a.record(obs.StageNANDRead, at, done, chip, units.Sector)
	return done, nil
}

// ProgramPU programs one full program unit (geo.ProgramUnit bytes spanning
// PagesPerPU pages) on a normal-media block, starting at startPage. The
// payload is given per sector: sectors, if non-nil, must hold exactly one
// entry per 4 KiB sector of the unit, each entry either nil (that sector is
// programmed without recorded payload, as workloads that do not verify data
// do) or a 4 KiB buffer, which is copied into pooled media storage — the
// caller's buffers are never retained. Programming must continue where the
// block left off (NAND pages are written in order), and the block must
// cover the full unit.
//
// Two instants are returned: release, when the data has been transferred
// into the chip's page register (the source buffer may be reused), and
// done, when the program operation finishes. The transfer waits for both
// the channel and the chip's register (a chip mid-program cannot accept
// data), which is what creates write-path backpressure.
func (a *Array) ProgramPU(at sim.Time, chip, block, startPage int, sectors [][]byte) (release, done sim.Time, err error) {
	if err := a.checkAddr(chip, block); err != nil {
		return at, at, err
	}
	media := a.meta[block].media
	if media == SLCMode {
		return at, at, fmt.Errorf("nand: ProgramPU on SLC-mode block %d", block)
	}
	ppu := a.geo.PagesPerPU()
	if startPage%ppu != 0 || startPage+ppu > a.geo.PagesPerBlock {
		return at, at, fmt.Errorf("nand: PU at page %d not aligned or out of block", startPage)
	}
	nsect := int(a.geo.ProgramUnit / units.Sector)
	if sectors != nil && len(sectors) != nsect {
		return at, at, fmt.Errorf("nand: PU payload %d sectors, want %d", len(sectors), nsect)
	}
	for _, s := range sectors {
		if s != nil && int64(len(s)) != units.Sector {
			return at, at, fmt.Errorf("nand: PU sector payload %d bytes, want %d", len(s), units.Sector)
		}
	}
	bs := &a.blocks[chip][block]
	spp := a.geo.SectorsPerPage()
	startSector := startPage * spp
	if bs.nextSector != startSector {
		return at, at, fmt.Errorf("nand: out-of-order program: block %d/%d expects sector %d, got %d",
			chip, block, bs.nextSector, startSector)
	}
	lat := a.meta[block].lat
	// The chip's cache register must be free before data can stream in:
	// it frees when the previous program starts.
	xferEnd := a.transfer(sim.Max(at, a.lastProgStart[chip]), chip, a.geo.ProgramUnit)
	progStart, progEnd := a.chips[chip].Reserve(xferEnd, lat.Program)
	if err := a.gate(progEnd); err != nil {
		// Torn multi-plane program: the cut struck mid-tPROG, so the whole
		// wordline stays unprogrammed and the write point does not move.
		return xferEnd, progEnd, err
	}
	a.lastProgStart[chip] = progStart
	if a.faults != nil && a.faults.ProgramFails(media, chip, block, bs.eraseCount) {
		// Status FAIL after the full program time: nothing is stored and
		// the write point does not advance; the caller must relocate.
		a.engine.Observe(progEnd)
		a.record(obs.StageNANDProgram, at, progEnd, chip, a.geo.ProgramUnit)
		return xferEnd, progEnd, fmt.Errorf("nand: program %d/%d page %d: %w", chip, block, startPage, ErrProgramFail)
	}

	s, off := a.sectorsFor(a.geo.PPAOf(Addr{Chip: chip, Block: block, Page: startPage}))
	for i := 0; i < nsect; i++ {
		var p []byte
		if sectors != nil {
			p = sectors[i]
		}
		s.written[off+int64(i)] = true
		a.setPayload(&s.slab[off+int64(i)], p)
	}
	bs.nextSector = startSector + nsect

	a.counters.PUPrograms++
	a.counters.BytesProgrammed += a.geo.ProgramUnit
	a.engine.Observe(progEnd)
	a.record(obs.StageNANDProgram, at, progEnd, chip, a.geo.ProgramUnit)
	return xferEnd, progEnd, nil
}

// ProgramSLCSector partially programs one 4 KiB sector of an SLC-mode page
// (paper §II-A: "flash pages of single-level flash cells can be programmed
// partially with a programming unit of 4KiB"). Sectors within a block must
// be programmed in order.
func (a *Array) ProgramSLCSector(at sim.Time, chip, block, page, sector int, payload []byte) (release, done sim.Time, err error) {
	if err := a.checkAddr(chip, block); err != nil {
		return at, at, err
	}
	if a.geo.MediaOf(block) != SLCMode {
		return at, at, fmt.Errorf("nand: partial program on non-SLC block %d", block)
	}
	if page < 0 || page >= a.geo.SLCPagesPerBlock {
		return at, at, fmt.Errorf("nand: page %d out of SLC block range [0,%d)", page, a.geo.SLCPagesPerBlock)
	}
	spp := a.geo.SectorsPerPage()
	if sector < 0 || sector >= spp {
		return at, at, fmt.Errorf("nand: sector %d out of page range [0,%d)", sector, spp)
	}
	if payload != nil && int64(len(payload)) != units.Sector {
		return at, at, fmt.Errorf("nand: SLC partial payload %d bytes, want %d", len(payload), units.Sector)
	}
	bs := &a.blocks[chip][block]
	lin := page*spp + sector
	if bs.nextSector != lin {
		return at, at, fmt.Errorf("nand: out-of-order partial program: block %d/%d expects sector %d, got %d",
			chip, block, bs.nextSector, lin)
	}
	lat := a.lat.For(SLCMode)
	xferEnd := a.transfer(sim.Max(at, a.lastProgStart[chip]), chip, units.Sector)
	progStart, progEnd := a.chips[chip].Reserve(xferEnd, lat.Program)
	if err := a.gate(progEnd); err != nil {
		return xferEnd, progEnd, err
	}
	a.lastProgStart[chip] = progStart
	if a.faults != nil && a.faults.ProgramFails(SLCMode, chip, block, bs.eraseCount) {
		a.engine.Observe(progEnd)
		a.record(obs.StageNANDProgram, at, progEnd, chip, units.Sector)
		return xferEnd, progEnd, fmt.Errorf("nand: partial program %d/%d page %d: %w", chip, block, page, ErrProgramFail)
	}

	s, off := a.sectorsFor(a.geo.PPAOf(Addr{Chip: chip, Block: block, Page: page, Sector: sector}))
	s.written[off] = true
	a.setPayload(&s.slab[off], payload)
	bs.nextSector = lin + 1

	a.counters.PartialPrograms++
	a.counters.BytesProgrammed += units.Sector
	a.engine.Observe(progEnd)
	a.record(obs.StageNANDProgram, at, progEnd, chip, units.Sector)
	return xferEnd, progEnd, nil
}

// ChargeMapProgram models persisting one L2P-log page into the map region:
// a page transfer plus an SLC-mode program on the given chip. Like
// ChargeMapRead it is timing-only — the map region's content is kept in
// host memory by the FTL (the paper defers real map persistence layout to
// future work, §III-E), but the bus/die time and the blocking it causes
// are real.
func (a *Array) ChargeMapProgram(at sim.Time, chip int) (sim.Time, error) {
	if chip < 0 || chip >= a.geo.Chips() {
		return at, fmt.Errorf("nand: chip %d out of range", chip)
	}
	lat := a.lat.For(SLCMode)
	xferEnd := a.transfer(sim.Max(at, a.lastProgStart[chip]), chip, a.geo.PageSize)
	progStart, progEnd := a.chips[chip].Reserve(xferEnd, lat.Program)
	if err := a.gate(progEnd); err != nil {
		return progEnd, err
	}
	a.lastProgStart[chip] = progStart
	a.counters.MapPrograms++
	a.counters.BytesProgrammed += a.geo.PageSize
	a.engine.Observe(progEnd)
	a.record(obs.StageNANDProgram, at, progEnd, chip, a.geo.PageSize)
	return progEnd, nil
}

// ProgramSLCPage programs one whole SLC-mode page (all sectors) in a
// single program operation. Staging layers use it when a full page of data
// is available: one tPROG covers the page, which is why aggregating evicted
// buffer data at page granularity is so much cheaper than 4 KiB partials.
// The page must be the block's next unprogrammed one. The payload is given
// per sector (one entry per sector of the page, entries nil or 4 KiB, as in
// ProgramPU); sector data is copied, never retained.
func (a *Array) ProgramSLCPage(at sim.Time, chip, block, page int, sectors [][]byte) (release, done sim.Time, err error) {
	if err := a.checkAddr(chip, block); err != nil {
		return at, at, err
	}
	if a.geo.MediaOf(block) != SLCMode {
		return at, at, fmt.Errorf("nand: SLC page program on non-SLC block %d", block)
	}
	if page < 0 || page >= a.geo.SLCPagesPerBlock {
		return at, at, fmt.Errorf("nand: page %d out of SLC block range [0,%d)", page, a.geo.SLCPagesPerBlock)
	}
	spp := a.geo.SectorsPerPage()
	if sectors != nil && len(sectors) != spp {
		return at, at, fmt.Errorf("nand: SLC page payload %d sectors, want %d", len(sectors), spp)
	}
	for _, s := range sectors {
		if s != nil && int64(len(s)) != units.Sector {
			return at, at, fmt.Errorf("nand: SLC sector payload %d bytes, want %d", len(s), units.Sector)
		}
	}
	bs := &a.blocks[chip][block]
	if bs.nextSector != page*spp {
		return at, at, fmt.Errorf("nand: out-of-order page program: block %d/%d expects sector %d, got %d",
			chip, block, bs.nextSector, page*spp)
	}
	lat := a.lat.For(SLCMode)
	xferEnd := a.transfer(sim.Max(at, a.lastProgStart[chip]), chip, a.geo.PageSize)
	progStart, progEnd := a.chips[chip].Reserve(xferEnd, lat.Program)
	if err := a.gate(progEnd); err != nil {
		return xferEnd, progEnd, err
	}
	a.lastProgStart[chip] = progStart
	if a.faults != nil && a.faults.ProgramFails(SLCMode, chip, block, bs.eraseCount) {
		a.engine.Observe(progEnd)
		a.record(obs.StageNANDProgram, at, progEnd, chip, a.geo.PageSize)
		return xferEnd, progEnd, fmt.Errorf("nand: page program %d/%d page %d: %w", chip, block, page, ErrProgramFail)
	}

	s, off := a.sectorsFor(a.geo.PPAOf(Addr{Chip: chip, Block: block, Page: page}))
	for i := 0; i < spp; i++ {
		var p []byte
		if sectors != nil {
			p = sectors[i]
		}
		s.written[off+int64(i)] = true
		a.setPayload(&s.slab[off+int64(i)], p)
	}
	bs.nextSector = (page + 1) * spp

	a.counters.PageProgramsSLC++
	a.counters.BytesProgrammed += a.geo.PageSize
	a.engine.Observe(progEnd)
	a.record(obs.StageNANDProgram, at, progEnd, chip, a.geo.PageSize)
	return xferEnd, progEnd, nil
}

// Erase erases one per-chip block, clearing programmed state and payloads.
//
// With a fault injector attached the erase may fail: the full tBERS is
// charged and the erase cycle still counts toward the block's wear (the
// die attempted it), but the block's contents and write point are left
// unchanged and ErrEraseFail is returned — the caller must retire the block.
func (a *Array) Erase(at sim.Time, chip, block int) (sim.Time, error) {
	if err := a.checkAddr(chip, block); err != nil {
		return at, err
	}
	lat := a.lat.For(a.geo.MediaOf(block))
	_, end := a.chips[chip].Reserve(at, lat.Erase)
	if err := a.gate(end); err != nil {
		// Torn erase: the block keeps its pre-erase contents and write
		// point; no wear is counted for the interrupted cycle.
		return end, err
	}
	bs := &a.blocks[chip][block]
	if a.faults != nil && a.faults.EraseFails(a.geo.MediaOf(block), chip, block, bs.eraseCount) {
		bs.eraseCount++
		a.counters.Erases++
		a.engine.Observe(end)
		a.record(obs.StageNANDErase, at, end, chip, 0)
		return end, fmt.Errorf("nand: erase %d/%d: %w", chip, block, ErrEraseFail)
	}
	bs.nextSector = 0
	bs.eraseCount++
	if lb := chip*a.geo.BlocksPerChip + block; a.sects[lb] != nil {
		a.releaseSectors(a.sects[lb])
		a.sects[lb] = nil
	}
	a.counters.Erases++
	a.engine.Observe(end)
	a.record(obs.StageNANDErase, at, end, chip, 0)
	return end, nil
}

// IsWritten reports whether the sector at ppa has been programmed since the
// last erase of its block.
func (a *Array) IsWritten(ppa PPA) bool {
	if ppa < 0 || int64(ppa) >= a.total {
		return false
	}
	s, off := a.sectors(ppa)
	return s != nil && s.written[off]
}

// Payload returns the stored bytes of one written sector, or nil when the
// sector was programmed without a recorded payload.
//
// The returned slice is a borrow of the live pooled media slab: it must not
// be modified, and it is valid only until the sector is overwritten or its
// block is erased — the slab is then recycled and may be reprogrammed with
// unrelated data. Callers that let the bytes escape the current media
// operation (oracles, host-boundary copies) must use PayloadCopy instead.
func (a *Array) Payload(ppa PPA) []byte {
	if ppa < 0 || int64(ppa) >= a.total {
		return nil
	}
	s, off := a.sectors(ppa)
	if s == nil {
		return nil
	}
	return a.slabs.bytes(s.slab[off])
}

// PayloadCopy returns a freshly allocated copy of the sector's stored bytes
// (nil when none are recorded). Unlike Payload's borrowed view, the result
// survives erases and pool reuse, so it is safe to retain or hand across
// the host boundary.
func (a *Array) PayloadCopy(ppa PPA) []byte {
	p := a.Payload(ppa)
	if p == nil {
		return nil
	}
	return append([]byte(nil), p...)
}

// NextProgramSector returns the block's append point (linear sector offset
// within the block), used by allocators to validate their own state.
func (a *Array) NextProgramSector(chip, block int) int {
	return a.blocks[chip][block].nextSector
}

// TotalEraseCount sums the per-block erase counters over every chip. The
// invariant auditor cross-checks it against Counters().Erases.
func (a *Array) TotalEraseCount() int64 {
	var n int64
	for c := range a.blocks {
		for b := range a.blocks[c] {
			n += a.blocks[c][b].eraseCount
		}
	}
	return n
}
