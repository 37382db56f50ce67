package conzone

import (
	"bytes"
	"path/filepath"
	"syscall"
	"testing"
)

// TestFailedSaveKeepsPreviousImage pins that SaveImage replaces an image
// atomically: a save that fails mid-write — here the process's file-size
// limit cuts it short, as a full disk would — leaves the previous image in
// place and loadable by OpenImage, with its data intact.
func TestFailedSaveKeepsPreviousImage(t *testing.T) {
	cfg := SmallConfig()
	dev, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := fillPattern(0, 3, 16)
	if err := dev.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushZone(0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "conzone.img")
	if err := dev.SaveImage(path); err != nil {
		t.Fatalf("first save: %v", err)
	}
	if err := dev.Write(dev.ZoneBytes(), fillPattern(1, 3, 8)); err != nil {
		t.Fatal(err)
	}
	if err := dev.FlushZone(1); err != nil {
		t.Fatal(err)
	}

	// Writes past 4 KiB now fail with EFBIG (Go ignores SIGXFSZ).
	var prev syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &prev); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lim := prev
	lim.Cur = 4096
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	err = dev.SaveImage(path)
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &prev); rerr != nil {
		t.Fatalf("restore file-size limit: %v", rerr)
	}
	if err == nil {
		t.Fatal("save under a 4 KiB file-size limit succeeded")
	}
	if left, _ := filepath.Glob(path + ".tmp*"); len(left) != 0 {
		t.Errorf("failed save left temporary files %v", left)
	}

	re, err := OpenImage(cfg, path)
	if err != nil {
		t.Fatalf("previous image lost after a failed save: %v", err)
	}
	got, err := re.Read(0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("previous image's data changed after a failed save")
	}
	z, err := re.Zone(1)
	if err != nil {
		t.Fatal(err)
	}
	if z.Written() != 0 {
		t.Fatalf("zone 1 WP = %d sectors after a failed save, want the previous image's 0", z.Written())
	}
}
