package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/vfs"
)

const eps = 1e-6

func almost(a, b float64) bool { return math.Abs(a-b) < eps }

func TestSingleTransferTakesSizeOverBandwidth(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "lan", 1000) // 1000 B/s
	var done float64
	l.Transfer("f", 5000, func() { done = e.Now() })
	e.Run()
	if !almost(done, 5) {
		t.Fatalf("transfer finished at %v, want 5", done)
	}
	if !almost(l.BytesMoved(), 5000) {
		t.Fatalf("BytesMoved = %v, want 5000", l.BytesMoved())
	}
}

func TestConcurrentTransfersShareBandwidth(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "lan", 1000)
	var t1, t2 float64
	l.Transfer("a", 1000, func() { t1 = e.Now() })
	l.Transfer("b", 1000, func() { t2 = e.Now() })
	e.Run()
	if !almost(t1, 2) || !almost(t2, 2) {
		t.Fatalf("transfers finished at %v, %v; want both 2 (shared link)", t1, t2)
	}
}

func TestLinkAccessors(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "lan", 1e6)
	if l.name != "lan" || l.res.Capacity() != 1e6 || l.res.Active() != 0 {
		t.Fatal("accessors wrong")
	}
	l.Transfer("x", 100, nil)
	if l.res.Active() != 1 {
		t.Fatalf("Active = %d, want 1", l.res.Active())
	}
	e.Run()
}

func TestInvalidLinkPanics(t *testing.T) {
	e := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth did not panic")
		}
	}()
	NewLink(e, "bad", 0)
}

func newRsyncFixture(t *testing.T) (*sim.Engine, *vfs.FS, *vfs.FS, *Link) {
	t.Helper()
	e := sim.NewEngine()
	src := vfs.New(e.Now)
	dst := vfs.New(e.Now)
	l := NewLink(e, "lan", 1000)
	return e, src, dst, l
}

func TestRsyncMirrorsStaticFile(t *testing.T) {
	e, src, dst, l := newRsyncFixture(t)
	if err := src.Append("/out/1_salt.63", 2000); err != nil {
		t.Fatal(err)
	}
	r := NewRsync(e, src, dst, l, 10, []string{"/out"}, nil)
	r.Start()
	e.RunUntil(100)
	if got := dst.Size("/out/1_salt.63"); got != 2000 {
		t.Fatalf("dst size = %d, want 2000", got)
	}
	if !r.Synced() {
		t.Fatal("rsync should report synced")
	}
	if got := r.sent["/out/1_salt.63"]; got != 2000 {
		t.Fatalf("delivered = %d, want 2000", got)
	}
	r.Stop()
}

func TestRsyncFollowsGrowingFile(t *testing.T) {
	e, src, dst, l := newRsyncFixture(t)
	// Grow the file by 500 bytes every 5 seconds for 50 seconds.
	for i := 0; i < 10; i++ {
		d := float64(i * 5)
		e.Scope("test").At(d, func() {
			if err := src.Append("/out/f", 500); err != nil {
				t.Error(err)
			}
		})
	}
	r := NewRsync(e, src, dst, l, 10, []string{"/out"}, nil)
	r.Start()
	e.RunUntil(200) // rsync ticks forever by design; bound virtual time
	if got := dst.Size("/out/f"); got != 5000 {
		t.Fatalf("dst size = %d, want 5000", got)
	}
	r.Stop()
}

func TestRsyncObserverSeesMonotonicSizes(t *testing.T) {
	e, src, dst, l := newRsyncFixture(t)
	_ = src.Append("/out/f", 3000)
	e.Scope("test").At(25, func() { _ = src.Append("/out/f", 1000) })
	var times []float64
	var sizes []int64
	r := NewRsync(e, src, dst, l, 10, []string{"/out"}, func(tm float64, path string, size int64) {
		times = append(times, tm)
		sizes = append(sizes, size)
	})
	r.Start()
	e.RunUntil(200)
	r.Stop()
	if len(sizes) == 0 {
		t.Fatal("observer never called")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] || times[i] < times[i-1] {
			t.Fatalf("observer sequence not monotonic: times=%v sizes=%v", times, sizes)
		}
	}
	if sizes[len(sizes)-1] != 4000 {
		t.Fatalf("final observed size = %d, want 4000", sizes[len(sizes)-1])
	}
}

func TestRsyncMultipleRoots(t *testing.T) {
	e, src, dst, l := newRsyncFixture(t)
	_ = src.Append("/outputs/a", 100)
	_ = src.Append("/products/b", 200)
	_ = src.Append("/ignored/c", 300)
	r := NewRsync(e, src, dst, l, 5, []string{"/outputs", "/products"}, nil)
	r.Start()
	e.RunUntil(50)
	r.Stop()
	if dst.Size("/outputs/a") != 100 || dst.Size("/products/b") != 200 {
		t.Fatal("watched roots not mirrored")
	}
	if dst.Exists("/ignored/c") {
		t.Fatal("unwatched root was mirrored")
	}
}

func TestRsyncMissingRootIgnored(t *testing.T) {
	e, src, dst, l := newRsyncFixture(t)
	r := NewRsync(e, src, dst, l, 5, []string{"/not-yet"}, nil)
	r.Start()
	e.RunUntil(20)
	// Root appears later.
	_ = src.Append("/not-yet/f", 100)
	e.RunUntil(40)
	if dst.Size("/not-yet/f") != 100 {
		t.Fatalf("late root not mirrored: %d", dst.Size("/not-yet/f"))
	}
	r.Stop()
}

func TestRsyncStopHaltsScans(t *testing.T) {
	e, src, dst, l := newRsyncFixture(t)
	_ = src.Append("/out/f", 100)
	r := NewRsync(e, src, dst, l, 5, []string{"/out"}, nil)
	r.Start()
	e.RunUntil(7) // one scan at t=5, transfer finishes at 5.1
	r.Stop()
	_ = src.Append("/out/f", 900)
	e.RunUntil(100)
	if dst.Size("/out/f") != 100 {
		t.Fatalf("dst size = %d, want 100 (stopped before growth)", dst.Size("/out/f"))
	}
	if r.Synced() {
		t.Fatal("Synced should be false with undelivered bytes")
	}
}

func TestRsyncLagIsBoundedByIntervalPlusTransfer(t *testing.T) {
	e, src, dst, l := newRsyncFixture(t)
	_ = src.Append("/out/f", 1000)
	var deliveredAt float64
	r := NewRsync(e, src, dst, l, 10, []string{"/out"}, func(tm float64, _ string, _ int64) {
		deliveredAt = tm
	})
	r.Start()
	e.RunUntil(50)
	r.Stop()
	// First scan at t=10, transfer of 1000 B at 1000 B/s → t=11.
	if !almost(deliveredAt, 11) {
		t.Fatalf("delivered at %v, want 11", deliveredAt)
	}
}

func TestRsyncInvalidIntervalPanics(t *testing.T) {
	e, src, dst, l := newRsyncFixture(t)
	defer func() {
		if recover() == nil {
			t.Error("zero interval did not panic")
		}
	}()
	NewRsync(e, src, dst, l, 0, nil, nil)
}

// Property: rsync conserves bytes — after enough scans, every destination
// file's size equals its source's, and the link moved exactly the total
// delivered, for random growth patterns.
func TestPropertyRsyncConservation(t *testing.T) {
	f := func(growth []uint16, intervalRaw uint8) bool {
		if len(growth) == 0 || len(growth) > 20 {
			return true
		}
		e := sim.NewEngine()
		src := vfs.New(e.Now)
		dst := vfs.New(e.Now)
		l := NewLink(e, "lan", 1e6)
		interval := float64(intervalRaw%50) + 5
		var total int64
		for i, g := range growth {
			d := float64(i * 13)
			bytes := int64(g) + 1
			total += bytes
			path := "/out/f" + string(rune('a'+i%4))
			e.Scope("test").At(d, func() {
				if err := src.Append(path, bytes); err != nil {
					t.Error(err)
				}
			})
		}
		r := NewRsync(e, src, dst, l, interval, []string{"/out"}, nil)
		r.Start()
		e.RunUntil(float64(len(growth)*13) + 10*interval + 100)
		r.Stop()
		if dst.TreeSize("/out") != total {
			t.Logf("delivered %d of %d", dst.TreeSize("/out"), total)
			return false
		}
		if int64(l.BytesMoved()) != total {
			t.Logf("link moved %v, want %d", l.BytesMoved(), total)
			return false
		}
		return r.Synced()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRsyncOneInflightPerFile(t *testing.T) {
	e, src, dst, l := newRsyncFixture(t)
	// Big file: transfer takes 100s, scans every 10s. Only one transfer
	// should be in flight at a time for the same file.
	_ = src.Append("/out/f", 100000)
	r := NewRsync(e, src, dst, l, 10, []string{"/out"}, nil)
	r.Start()
	maxActive := 0
	for i := 0; i < 50; i++ {
		e.RunUntil(float64(i * 5))
		if l.res.Active() > maxActive {
			maxActive = l.res.Active()
		}
	}
	e.RunUntil(300)
	r.Stop()
	if maxActive != 1 {
		t.Fatalf("max in-flight transfers = %d, want 1", maxActive)
	}
	if dst.Size("/out/f") != 100000 {
		t.Fatalf("dst size = %d, want 100000", dst.Size("/out/f"))
	}
	r.Stop()
}

// Regression: Start after Stop used to be a permanent no-op — the stopped
// flag was never cleared, so a restarted rsync daemon silently mirrored
// nothing for the rest of the campaign.
func TestRsyncRestartAfterStop(t *testing.T) {
	e, src, dst, l := newRsyncFixture(t)
	if err := src.Append("/out/f", 1000); err != nil {
		t.Fatal(err)
	}
	r := NewRsync(e, src, dst, l, 10, []string{"/out"}, nil)
	r.Start()
	e.RunUntil(100)
	if got := dst.Size("/out/f"); got != 1000 {
		t.Fatalf("dst size before stop = %d, want 1000", got)
	}

	r.Stop()
	e.Scope("test").At(110, func() { _ = src.Append("/out/f", 500) })
	e.RunUntil(200)
	if got := dst.Size("/out/f"); got != 1000 {
		t.Fatalf("dst size grew to %d while stopped", got)
	}

	r.Start()
	e.RunUntil(300)
	if got := dst.Size("/out/f"); got != 1500 {
		t.Fatalf("dst size after restart = %d, want 1500 — Start after Stop is a no-op", got)
	}
	if !r.Synced() {
		t.Fatal("restarted rsync should report synced")
	}
	r.Stop()
}
