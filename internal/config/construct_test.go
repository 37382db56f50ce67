package config

import (
	"runtime"
	"testing"
	"time"

	"github.com/conzone/conzone/internal/ftl"
)

// BenchmarkNewDevice measures building one ConZone device, NAND array to
// FTL, for the small test preset and the paper's §IV-A device.
func BenchmarkNewDevice(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  DeviceConfig
	}{{"small", Small()}, {"paper", Paper()}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.cfg.NewConZone(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// maxSmallBuildBytes bounds the heap bytes one Small().NewConZone()
// allocates. Construction is deterministic, so the count is exact: growth
// past it means per-device state became eager again (fleet runs build
// thousands of these).
const maxSmallBuildBytes = 143_000

func TestNewConZoneAllocBytes(t *testing.T) {
	cfg := Small()
	var before, after runtime.MemStats
	best := uint64(1 << 62)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		f, err := cfg.NewConZone()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(f)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Small().NewConZone() allocates %d B", best)
	if best > maxSmallBuildBytes {
		t.Fatalf("Small().NewConZone() allocates %d B, want <= %d", best, maxSmallBuildBytes)
	}
}

// TestDroppedDeviceCollected pins that nothing keeps a dropped device
// alive: one GC cycle finds it unreachable. SetFinalizer also panics if
// construction already attached a finalizer of its own.
func TestDroppedDeviceCollected(t *testing.T) {
	f, err := Small().NewConZone()
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(f, func(*ftl.FTL) { close(collected) })
	f = nil
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatal("dropped device survived a GC cycle")
	}
}
