package dsm

import (
	"testing"

	"nowomp/internal/engine"
	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// TestWriteUnchangedValueCreatesNoDiff exercises the twin-discard path:
// a write that stores the value already present must not generate a
// diff or force readers to refetch on multi-writer pages.
func TestWriteUnchangedValueCreatesNoDiff(t *testing.T) {
	c, clocks := newTestCluster(t, 3, 3)
	r, _ := c.Alloc("a", page.Size)
	// Establish a multi-writer page.
	putU64(c, 0, r.ID, 0, 5, clocks[0])
	putU64(c, 1, r.ID, 8, 6, clocks[1])
	barrier(c, clocks)
	getU64(c, 0, r.ID, 8, clocks[0]) // host 0 becomes current

	created := c.Stats().DiffsCreated
	// Rewrite the same value: twin made, no diff at the barrier.
	putU64(c, 0, r.ID, 0, 5, clocks[0])
	barrier(c, clocks)
	if got := c.Stats().DiffsCreated - created; got != 0 {
		t.Fatalf("unchanged write created %d diffs, want 0", got)
	}
}

// TestMultiRegionIndependence checks that pages in different regions
// have independent metadata and ownership.
func TestMultiRegionIndependence(t *testing.T) {
	c, clocks := newTestCluster(t, 3, 3)
	r1, _ := c.Alloc("a", 2*page.Size)
	r2, _ := c.Alloc("b", 2*page.Size)
	putU64(c, 1, r1.ID, 0, 11, clocks[1])
	putU64(c, 2, r2.ID, 0, 22, clocks[2])
	barrier(c, clocks)
	if got := c.PageOwner(r1.ID, 0); got != 1 {
		t.Fatalf("region a page 0 owner = %d, want 1", got)
	}
	if got := c.PageOwner(r2.ID, 0); got != 2 {
		t.Fatalf("region b page 0 owner = %d, want 2", got)
	}
	if got := getU64(c, 0, r1.ID, 0, clocks[0]); got != 11 {
		t.Fatalf("region a reads %d", got)
	}
	if got := getU64(c, 0, r2.ID, 0, clocks[0]); got != 22 {
		t.Fatalf("region b reads %d", got)
	}
}

// TestLeaveAfterHeavySharing runs a conflicted workload, then a leave,
// and checks the post-leave ownership invariant: no page is owned by
// an inactive host and every owner holds a valid copy.
func TestLeaveAfterHeavySharing(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 4)
	r, _ := c.Alloc("a", 6*page.Size)
	for it := 0; it < 5; it++ {
		for h := 0; h < 4; h++ {
			// All hosts write interleaved words across all pages.
			putU64(c, HostID(h), r.ID, (h*8+it*32)%(6*page.Size-8), uint64(it*10+h), clocks[h])
		}
		barrier(c, clocks)
	}
	c.ForceGC(c.ActiveHosts())
	if _, err := c.NormalLeave(2, LeaveViaMaster); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 6; p++ {
		owner := c.PageOwner(r.ID, p)
		if owner == 2 {
			t.Fatalf("page %d still owned by departed host", p)
		}
		if !c.Host(owner).Active() {
			t.Fatalf("page %d owned by inactive host %d", p, owner)
		}
		if !c.Host(owner).Valid(r.ID, p) {
			t.Fatalf("owner %d of page %d holds no valid copy", owner, p)
		}
	}
}

// TestGCWithInactiveStaleHost: a host leaves, its (cleared) state must
// not confuse later GCs, and rejoining mid-era works.
func TestGCLifecycleAcrossLeaveAndRejoin(t *testing.T) {
	c, clocks := newTestCluster(t, 3, 3)
	r, _ := c.Alloc("a", 4*page.Size)
	putU64(c, 2, r.ID, 2*page.Size, 7, clocks[2])
	barrier(c, clocks)
	c.ForceGC(c.ActiveHosts())
	if _, err := c.NormalLeave(2, LeaveViaMaster); err != nil {
		t.Fatal(err)
	}
	// More work and a GC with host 2 gone.
	putU64(c, 1, r.ID, 0, 8, clocks[1])
	barrier(c, []*simtime.Clock{clocks[0], clocks[1], clocks[2]})
	c.ForceGC(c.ActiveHosts())
	// Rejoin and read everything.
	if _, err := c.Join(2); err != nil {
		t.Fatal(err)
	}
	if got := getU64(c, 2, r.ID, 2*page.Size, clocks[2]); got != 7 {
		t.Fatalf("rejoined host reads %d, want 7", got)
	}
	if got := getU64(c, 2, r.ID, 0, clocks[2]); got != 8 {
		t.Fatalf("rejoined host reads %d, want 8", got)
	}
}

// TestBarrierActiveMismatchPanics documents the parked-processes
// contract.
func TestBarrierActiveMismatchPanics(t *testing.T) {
	c, _ := newTestCluster(t, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched arrivals must panic")
		}
	}()
	c.Barrier([]HostID{0, 1}, []simtime.Seconds{0})
}

// TestConservativeLockGrantFollowsVirtualTime: under the engine, the
// proc that requests a lock later in virtual time must wait for the
// virtually-earlier one even when its coroutine is registered first
// (and so would win any arrival-order race).
func TestConservativeLockGrantFollowsVirtualTime(t *testing.T) {
	c, _ := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)

	early := simtime.NewClock(1.0)
	late := simtime.NewClock(5.0)
	e := engine.New()
	c.BeginPhase(e)
	defer c.EndPhase()

	var order []int
	// The late requester is registered first: registration order must
	// not matter.
	e.Go("late", 1, late, func(*engine.Proc) {
		c.AcquireLock(1, c.Host(1), late)
		order = append(order, 2)
		putU64(c, 1, r.ID, 8, 2, late)
		c.ReleaseLock(1, c.Host(1), late)
	})
	e.Go("early", 0, early, func(*engine.Proc) {
		c.AcquireLock(1, c.Host(0), early)
		order = append(order, 1)
		putU64(c, 0, r.ID, 0, 1, early)
		c.ReleaseLock(1, c.Host(0), early)
	})
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("grant order = %v, want virtual-time order [1 2]", order)
	}
	// The late acquirer's clock must sit after the early release.
	if late.Now() <= 5.0 {
		t.Fatalf("late clock = %v, want advanced past its request by lock costs", late.Now())
	}
}

// TestInstallRegionInvalidatesOtherCopies guards the recovery path.
func TestInstallRegionInvalidatesOtherCopies(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	putU64(c, 0, r.ID, 0, 1, clocks[0])
	barrier(c, clocks)
	getU64(c, 1, r.ID, 0, clocks[1]) // host 1 caches

	fresh := make([]byte, page.Size)
	fresh[0] = 99
	if err := c.InstallRegion(r, fresh); err != nil {
		t.Fatal(err)
	}
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 99 {
		t.Fatalf("host 1 read %d after install, want 99 (stale copy must be dropped)", got)
	}
	if err := c.InstallRegion(r, make([]byte, 7)); err == nil {
		t.Fatal("short install must fail")
	}
}

// TestDumpRegionRequiresCollectedMaster guards the checkpoint path.
func TestDumpRegionRequiresCollectedMaster(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", 2*page.Size)
	putU64(c, 1, r.ID, 0, 3, clocks[1])
	barrier(c, clocks)
	c.ForceGC(c.ActiveHosts())
	// Master's copy of page 0 was pruned (host 1 owns it): dump fails.
	if _, err := c.DumpRegion(r); err == nil {
		t.Fatal("dump without collect must fail")
	}
	c.CollectToMaster()
	data, err := c.DumpRegion(r)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 3 {
		t.Fatalf("dumped byte = %d, want 3", data[0])
	}
}
