package nand

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
)

// File-backed NAND image: the array's durable state — programmed flags,
// payloads, per-block append points and wear, OOB stamps, the metadata
// journal and activity counters — serialized with encoding/gob so an
// experiment can stop, restart, and remount the same media. Only durable
// state is saved: timing resources restart at virtual time zero on load
// (power-on resets the clock), and volatile controller state (write
// buffers, L2P cache) is deliberately absent — a loaded image goes through
// the same recovery scan as a crashed in-memory device.

// imageVersion guards against loading images written by an incompatible
// layout.
const imageVersion = 1

type imageBlock struct {
	NextSector int
	EraseCount int64
}

type imageFile struct {
	Version  int
	Geo      Geometry
	Blocks   [][]imageBlock
	Written  []bool
	Payload  map[int64][]byte // only sectors with recorded payload
	OOBLPA   []int64
	OOBSeq   []int64
	Seq      int64
	Journal  []MetaRecord
	Counters Counters
}

// SaveImage writes the array's durable state to path, replacing any
// existing file atomically: the image is written and synced to a temporary
// file in the same directory, which is then renamed over path, so a failed
// save leaves the previous image intact. The in-memory array is unchanged.
func (a *Array) SaveImage(path string) error {
	img := imageFile{
		Version:  imageVersion,
		Geo:      a.geo,
		Written:  make([]bool, a.total),
		Payload:  make(map[int64][]byte),
		OOBLPA:   make([]int64, a.total),
		OOBSeq:   make([]int64, a.total),
		Seq:      a.seq,
		Journal:  a.journal,
		Counters: a.counters,
	}
	for i := range img.OOBLPA {
		img.OOBLPA[i] = -1
	}
	for lb, st := range a.sects {
		if st == nil {
			continue
		}
		base := int64(lb) * a.stride
		copy(img.Written[base:], st.written)
		copy(img.OOBLPA[base:], st.oobLPA)
		copy(img.OOBSeq[base:], st.oobSeq)
		for i, id := range st.slab {
			if id != 0 {
				img.Payload[base+int64(i)] = a.slabs.bytes(id)
			}
		}
	}
	img.Blocks = make([][]imageBlock, len(a.blocks))
	for c := range a.blocks {
		img.Blocks[c] = make([]imageBlock, len(a.blocks[c]))
		for b, bs := range a.blocks[c] {
			img.Blocks[c][b] = imageBlock{NextSector: bs.nextSector, EraseCount: bs.eraseCount}
		}
	}
	if err := writeAtomic(path, &img); err != nil {
		return fmt.Errorf("nand: save image: %w", err)
	}
	return nil
}

// writeAtomic gob-encodes v into a temporary sibling of path, syncs and
// closes it, and renames it over path. On any failure the temporary file
// is removed and path is untouched.
func writeAtomic(path string, v any) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = gob.NewEncoder(f).Encode(v); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// LoadArray rebuilds an array from an image written by SaveImage. The
// latency table is supplied by the caller (timing is configuration, not
// media state); the image's geometry must validate. The returned array is
// powered on at virtual time zero and has no fault injector attached — the
// caller re-attaches one before mounting.
func LoadArray(path string, lat LatencyTable) (*Array, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nand: load image: %w", err)
	}
	defer f.Close()
	var img imageFile
	if err := gob.NewDecoder(f).Decode(&img); err != nil {
		return nil, fmt.Errorf("nand: load image %s: %w", path, err)
	}
	if img.Version != imageVersion {
		return nil, fmt.Errorf("nand: image %s has version %d, want %d", path, img.Version, imageVersion)
	}
	a, err := NewArray(img.Geo, lat, nil)
	if err != nil {
		return nil, fmt.Errorf("nand: load image %s: %w", path, err)
	}
	n := img.Geo.TotalSectors()
	if int64(len(img.Written)) != n || int64(len(img.OOBLPA)) != n || int64(len(img.OOBSeq)) != n {
		return nil, fmt.Errorf("nand: image %s: sector-state length mismatch", path)
	}
	if len(img.Blocks) != img.Geo.Chips() {
		return nil, fmt.Errorf("nand: image %s: block-state chip count mismatch", path)
	}
	for c := range img.Blocks {
		if len(img.Blocks[c]) != img.Geo.BlocksPerChip {
			return nil, fmt.Errorf("nand: image %s: block-state length mismatch on chip %d", path, c)
		}
		for b, bs := range img.Blocks[c] {
			a.blocks[c][b] = blockState{nextSector: bs.NextSector, eraseCount: bs.EraseCount}
		}
	}
	for idx := int64(0); idx < n; idx++ {
		if img.Written[idx] || img.OOBLPA[idx] != -1 || img.OOBSeq[idx] != 0 {
			st, off := a.sectorsFor(PPA(idx))
			st.written[off] = img.Written[idx]
			st.oobLPA[off] = img.OOBLPA[idx]
			st.oobSeq[off] = img.OOBSeq[idx]
		}
	}
	a.seq = img.Seq
	a.journal = img.Journal
	a.counters = img.Counters
	for idx, p := range img.Payload {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("nand: image %s: payload index %d out of range", path, idx)
		}
		st, off := a.sectorsFor(PPA(idx))
		a.setPayload(&st.slab[off], p)
	}
	return a, nil
}
