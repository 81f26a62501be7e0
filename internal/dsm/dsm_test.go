package dsm

import (
	"encoding/binary"
	"testing"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// newTestCluster returns a cluster of n machines with hosts 0..act-1
// active, plus a clock per host.
func newTestCluster(t *testing.T, n, act int) (*Cluster, []*simtime.Clock) {
	t.Helper()
	c, err := New(Config{MaxHosts: n})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 1; i < act; i++ {
		if _, err := c.Join(HostID(i)); err != nil {
			t.Fatalf("Join(%d): %v", i, err)
		}
	}
	clocks := make([]*simtime.Clock, n)
	for i := range clocks {
		clocks[i] = simtime.NewClock(0)
	}
	return c, clocks
}

func barrier(c *Cluster, clocks []*simtime.Clock) BarrierResult {
	active := c.ActiveHosts()
	arr := make([]simtime.Seconds, len(active))
	for i, id := range active {
		arr[i] = clocks[id].Now()
	}
	res := c.Barrier(active, arr)
	for _, id := range active {
		clocks[id].AdvanceTo(res.ReleaseTime)
	}
	return res
}

func putU64(c *Cluster, h HostID, r RegionID, off int, v uint64, clk *simtime.Clock) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.Host(h).Write(r, off, b[:], clk)
}

func getU64(c *Cluster, h HostID, r RegionID, off int, clk *simtime.Clock) uint64 {
	var b [8]byte
	c.Host(h).Read(r, off, b[:], clk)
	return binary.LittleEndian.Uint64(b[:])
}

func TestAllocZeroedAndMasterOwned(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 2)
	r, err := c.Alloc("a", 3*page.Size)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if r.NPages != 3 {
		t.Fatalf("NPages = %d, want 3", r.NPages)
	}
	for p := 0; p < 3; p++ {
		if got := c.PageOwner(r.ID, p); got != 0 {
			t.Fatalf("page %d owner = %d, want master", p, got)
		}
	}
	if got := getU64(c, 1, r.ID, 8, clocks[1]); got != 0 {
		t.Fatalf("fresh region reads %d, want 0", got)
	}
}

func TestAllocRejectsBadSize(t *testing.T) {
	c, _ := newTestCluster(t, 2, 1)
	if _, err := c.Alloc("bad", 0); err == nil {
		t.Fatal("Alloc(0) must fail")
	}
	if _, err := c.Alloc("bad", -5); err == nil {
		t.Fatal("Alloc(-5) must fail")
	}
}

func TestReadFaultFetchesFullPage(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 2)
	r, _ := c.Alloc("a", page.Size)
	putU64(c, 0, r.ID, 0, 42, clocks[0])
	barrier(c, clocks)

	before := c.Stats().Snapshot()
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 42 {
		t.Fatalf("read %d, want 42", got)
	}
	d := c.Stats().Snapshot().Sub(before)
	if d.PageFetches != 1 || d.DiffFetches != 0 {
		t.Fatalf("fetches = %d pages %d diffs, want 1 page 0 diffs", d.PageFetches, d.DiffFetches)
	}
	// Second read hits the cached copy.
	before = c.Stats().Snapshot()
	getU64(c, 1, r.ID, 0, clocks[1])
	d = c.Stats().Snapshot().Sub(before)
	if d.PageFetches != 0 && d.ReadFaults != 0 {
		t.Fatalf("second read must be local, got %+v", d)
	}
}

func TestSingleWriterOwnershipMoves(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 3)
	r, _ := c.Alloc("a", page.Size)
	putU64(c, 1, r.ID, 0, 7, clocks[1])
	barrier(c, clocks)
	if got := c.PageOwner(r.ID, 0); got != 1 {
		t.Fatalf("owner = %d, want 1 (the writer)", got)
	}
	if got := c.PageMode(r.ID, 0); got != ModeSingle {
		t.Fatalf("mode = %v, want single", got)
	}
	if got := getU64(c, 2, r.ID, 0, clocks[2]); got != 7 {
		t.Fatalf("host 2 read %d, want 7", got)
	}
	if n := c.Stats().DiffsCreated; n != 0 {
		t.Fatalf("single-writer run created %d diffs, want 0", n)
	}
}

func TestMultiWriterConflictMergesDiffs(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 3)
	r, _ := c.Alloc("a", page.Size)
	// Hosts 0 and 1 write disjoint words of the same page in the same
	// interval: the partition-straddling pattern.
	putU64(c, 0, r.ID, 0, 100, clocks[0])
	putU64(c, 1, r.ID, 8, 200, clocks[1])
	barrier(c, clocks)

	if got := c.PageMode(r.ID, 0); got != ModeMulti {
		t.Fatalf("mode = %v, want multi after concurrent writers", got)
	}
	if n := c.Stats().DiffsCreated; n != 2 {
		t.Fatalf("DiffsCreated = %d, want 2", n)
	}
	// A third host sees the merged page.
	if got := getU64(c, 2, r.ID, 0, clocks[2]); got != 100 {
		t.Fatalf("host 2 word 0 = %d, want 100", got)
	}
	if got := getU64(c, 2, r.ID, 8, clocks[2]); got != 200 {
		t.Fatalf("host 2 word 1 = %d, want 200", got)
	}
	// Each writer sees the other's word after revalidation.
	if got := getU64(c, 0, r.ID, 8, clocks[0]); got != 200 {
		t.Fatalf("host 0 word 1 = %d, want 200", got)
	}
	if got := getU64(c, 1, r.ID, 0, clocks[1]); got != 100 {
		t.Fatalf("host 1 word 0 = %d, want 100", got)
	}
}

func TestRepeatedWritesUseDiffsOnMultiPages(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 2)
	r, _ := c.Alloc("a", page.Size)
	// Make the page multi-writer in interval 1.
	putU64(c, 0, r.ID, 0, 1, clocks[0])
	putU64(c, 1, r.ID, 8, 2, clocks[1])
	barrier(c, clocks)
	getU64(c, 1, r.ID, 0, clocks[1]) // host 1 revalidates

	// Now host 0 alone updates the page each interval; host 1 should
	// revalidate via diffs, not page fetches.
	before := c.Stats().Snapshot()
	for i := 0; i < 5; i++ {
		putU64(c, 0, r.ID, 0, uint64(10+i), clocks[0])
		barrier(c, clocks)
		if got := getU64(c, 1, r.ID, 0, clocks[1]); got != uint64(10+i) {
			t.Fatalf("iter %d: host 1 read %d, want %d", i, got, 10+i)
		}
	}
	d := c.Stats().Snapshot().Sub(before)
	if d.PageFetches != 0 {
		t.Fatalf("multi-page steady state made %d page fetches, want 0", d.PageFetches)
	}
	if d.DiffFetches < 5 {
		t.Fatalf("DiffFetches = %d, want >= 5", d.DiffFetches)
	}
}

func TestSingleWriterSteadyStateRefetchesPages(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 2)
	r, _ := c.Alloc("a", page.Size)
	before := c.Stats().Snapshot()
	for i := 0; i < 4; i++ {
		putU64(c, 0, r.ID, 0, uint64(i+1), clocks[0])
		barrier(c, clocks)
		if got := getU64(c, 1, r.ID, 0, clocks[1]); got != uint64(i+1) {
			t.Fatalf("iter %d: read %d, want %d", i, got, i+1)
		}
	}
	d := c.Stats().Snapshot().Sub(before)
	if d.DiffFetches != 0 {
		t.Fatalf("single-writer page produced %d diff fetches, want 0", d.DiffFetches)
	}
	if d.PageFetches != 4 {
		t.Fatalf("PageFetches = %d, want 4 (one per interval)", d.PageFetches)
	}
}

func TestWriterSwitchStaysSingleMode(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 2)
	r, _ := c.Alloc("a", page.Size)
	putU64(c, 0, r.ID, 0, 1, clocks[0])
	barrier(c, clocks)
	// Host 1 becomes the writer in a later interval: still one writer
	// per interval, so the page stays in single-writer mode.
	putU64(c, 1, r.ID, 0, 2, clocks[1])
	barrier(c, clocks)
	if got := c.PageMode(r.ID, 0); got != ModeSingle {
		t.Fatalf("mode = %v, want single for serial writers", got)
	}
	if got := c.PageOwner(r.ID, 0); got != 1 {
		t.Fatalf("owner = %d, want 1", got)
	}
	if got := getU64(c, 0, r.ID, 0, clocks[0]); got != 2 {
		t.Fatalf("host 0 read %d, want 2", got)
	}
}

func TestGCResetsConsistencyState(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 3)
	r, _ := c.Alloc("a", 2*page.Size)
	putU64(c, 0, r.ID, 0, 1, clocks[0])
	putU64(c, 1, r.ID, 8, 2, clocks[1])
	putU64(c, 2, r.ID, page.Size, 3, clocks[2])
	barrier(c, clocks)

	elapsed := c.ForceGC(c.ActiveHosts())
	if elapsed <= 0 {
		t.Fatalf("GC elapsed = %v, want > 0", elapsed)
	}
	if got := c.Stats().GCs; got != 1 {
		t.Fatalf("GCs = %d, want 1", got)
	}
	// Post-GC invariants: modes reset, owner current, reads correct.
	if got := c.PageMode(r.ID, 0); got != ModeSingle {
		t.Fatalf("post-GC mode = %v, want single", got)
	}
	owner := c.PageOwner(r.ID, 0)
	if !c.Host(owner).Valid(r.ID, 0) {
		t.Fatalf("post-GC owner %d does not hold a valid copy", owner)
	}
	if got := getU64(c, 2, r.ID, 0, clocks[2]); got != 1 {
		t.Fatalf("post-GC read word 0 = %d, want 1", got)
	}
	if got := getU64(c, 2, r.ID, 8, clocks[2]); got != 2 {
		t.Fatalf("post-GC read word 1 = %d, want 2", got)
	}
	if got := getU64(c, 0, r.ID, page.Size, clocks[0]); got != 3 {
		t.Fatalf("post-GC read page 1 = %d, want 3", got)
	}
}

func TestGCThresholdTriggersAtBarrier(t *testing.T) {
	c, err := New(Config{MaxHosts: 2, GCThresholdBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(1); err != nil {
		t.Fatal(err)
	}
	clocks := []*simtime.Clock{simtime.NewClock(0), simtime.NewClock(0)}
	r, _ := c.Alloc("a", page.Size)
	// Create a multi page, then keep diffing until the 64-byte budget
	// trips.
	putU64(c, 0, r.ID, 0, 1, clocks[0])
	putU64(c, 1, r.ID, 8, 2, clocks[1])
	gcs := 0
	for i := 0; i < 4; i++ {
		if barrier(c, clocks).GCRan {
			gcs++
		}
		putU64(c, 0, r.ID, 0, uint64(i), clocks[0])
	}
	if gcs == 0 {
		t.Fatal("tiny GC threshold never triggered a collection")
	}
}

func TestNormalLeaveViaMaster(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 4)
	r, _ := c.Alloc("a", 8*page.Size)
	// Each host writes two pages, becoming their owner.
	for h := 0; h < 4; h++ {
		putU64(c, HostID(h), r.ID, 2*h*page.Size, uint64(h+1), clocks[h])
		putU64(c, HostID(h), r.ID, (2*h+1)*page.Size, uint64(h+1), clocks[h])
	}
	barrier(c, clocks)
	c.ForceGC(c.ActiveHosts())

	if got := c.OwnedPages(2); got != 2 {
		t.Fatalf("host 2 owns %d pages, want 2", got)
	}
	rep, err := c.NormalLeave(2, LeaveViaMaster)
	if err != nil {
		t.Fatalf("NormalLeave: %v", err)
	}
	if rep.PagesMoved != 2 {
		t.Fatalf("moved %d pages, want 2", rep.PagesMoved)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("leave must cost time")
	}
	if c.Host(2).Active() {
		t.Fatal("leaver still active")
	}
	if got := c.OwnedPages(0); got < 4 {
		t.Fatalf("master owns %d pages, want >= 4 (its own + leaver's)", got)
	}
	// Data survives: the remaining hosts read the leaver's values.
	if got := getU64(c, 1, r.ID, 4*page.Size, clocks[1]); got != 3 {
		t.Fatalf("post-leave read = %d, want 3", got)
	}
}

func TestNormalLeaveDirectHandoffSpreadsOwnership(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 4)
	r, _ := c.Alloc("a", 12*page.Size)
	for p := 0; p < 12; p++ {
		putU64(c, HostID(p%4), r.ID, p*page.Size, uint64(p+1), clocks[p%4])
	}
	barrier(c, clocks)
	c.ForceGC(c.ActiveHosts())
	rep, err := c.NormalLeave(3, LeaveDirectHandoff)
	if err != nil {
		t.Fatalf("NormalLeave: %v", err)
	}
	if rep.PagesMoved == 0 {
		t.Fatal("expected pages to move")
	}
	// Ownership of the leaver's pages spread over the remaining hosts.
	for _, id := range []HostID{1, 2} {
		found := false
		for p := 0; p < 12; p++ {
			if p%4 == 3 && c.PageOwner(r.ID, p) == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("direct handoff gave host %d none of the leaver's pages", id)
		}
	}
	for p := 0; p < 12; p++ {
		if got := getU64(c, 1, r.ID, p*page.Size, clocks[1]); got != uint64(p+1) {
			t.Fatalf("page %d reads %d, want %d", p, got, p+1)
		}
	}
}

func TestLeaveErrors(t *testing.T) {
	c, _ := newTestCluster(t, 3, 2)
	if _, err := c.NormalLeave(0, LeaveViaMaster); err == nil {
		t.Fatal("master leave must fail")
	}
	if _, err := c.NormalLeave(2, LeaveViaMaster); err == nil {
		t.Fatal("leave of inactive host must fail")
	}
	if _, err := c.Join(1); err == nil {
		t.Fatal("join of active host must fail")
	}
}

func TestRejoinStartsFresh(t *testing.T) {
	c, clocks := newTestCluster(t, 3, 3)
	r, _ := c.Alloc("a", 2*page.Size)
	putU64(c, 2, r.ID, 0, 9, clocks[2])
	barrier(c, clocks)
	c.ForceGC(c.ActiveHosts())
	if _, err := c.NormalLeave(2, LeaveViaMaster); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Join(2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BytesMoved <= 0 {
		t.Fatal("join must send a page-location map")
	}
	if c.Host(2).HasCopy(r.ID, 0) {
		t.Fatal("rejoined host must start with no copies")
	}
	if got := getU64(c, 2, r.ID, 0, clocks[2]); got != 9 {
		t.Fatalf("rejoined host reads %d, want 9", got)
	}
}

func TestCollectToMaster(t *testing.T) {
	c, clocks := newTestCluster(t, 4, 4)
	r, _ := c.Alloc("a", 4*page.Size)
	for h := 0; h < 4; h++ {
		putU64(c, HostID(h), r.ID, h*page.Size, uint64(h+10), clocks[h])
	}
	barrier(c, clocks)
	c.ForceGC(c.ActiveHosts())
	rep := c.CollectToMaster()
	if rep.PagesMoved != 3 {
		t.Fatalf("collected %d pages, want 3 (master already had its own)", rep.PagesMoved)
	}
	for p := 0; p < 4; p++ {
		if !c.Master().Valid(r.ID, p) {
			t.Fatalf("master lacks page %d after collect", p)
		}
	}
	// Ownership unchanged.
	if got := c.PageOwner(r.ID, 3); got != 3 {
		t.Fatalf("collect changed owner of page 3 to %d", got)
	}
}

func TestResidentBytes(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", 4*page.Size)
	if got := c.Host(1).ResidentBytes(); got != 0 {
		t.Fatalf("fresh host resident = %d, want 0", got)
	}
	getU64(c, 1, r.ID, 0, clocks[1])
	getU64(c, 1, r.ID, page.Size, clocks[1])
	if got := c.Host(1).ResidentBytes(); got != 2*page.Size {
		t.Fatalf("resident = %d, want %d", got, 2*page.Size)
	}
	if got := c.Master().ResidentBytes(); got != 4*page.Size {
		t.Fatalf("master resident = %d, want full region", got)
	}
}

func TestCrossPageReadWrite(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", 3*page.Size)
	src := make([]byte, 2*page.Size)
	for i := range src {
		src[i] = byte(i * 7)
	}
	off := page.Size / 2 // straddles two page boundaries
	c.Host(0).Write(r.ID, off, src, clocks[0])
	barrier(c, clocks)
	dst := make([]byte, len(src))
	c.Host(1).Read(r.ID, off, dst, clocks[1])
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("byte %d = %d, want %d", i, dst[i], src[i])
		}
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 1)
	r, _ := c.Alloc("a", 100)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range read must panic")
		}
	}()
	c.Master().Read(r.ID, 96, make([]byte, 8), clocks[0])
}

func TestVirtualTimeAdvancesOnFaults(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	putU64(c, 0, r.ID, 0, 5, clocks[0])
	barrier(c, clocks)
	t0 := clocks[1].Now()
	getU64(c, 1, r.ID, 0, clocks[1])
	if d := clocks[1].Now() - t0; d < simtime.Micros(1307) || d > simtime.Micros(1400) {
		t.Fatalf("page fault cost %v, want about 1308 us", d)
	}
}

func TestFabricSeesPageTraffic(t *testing.T) {
	c, clocks := newTestCluster(t, 2, 2)
	r, _ := c.Alloc("a", page.Size)
	before := c.Fabric().Snapshot()
	getU64(c, 1, r.ID, 0, clocks[1])
	w := c.Fabric().Snapshot().Sub(before)
	if got := w.LinkBytes(0, 1); got < page.Size {
		t.Fatalf("master->host1 carried %d bytes, want >= one page", got)
	}
	if w.TotalMessages() < 2 {
		t.Fatalf("messages = %d, want request+response", w.TotalMessages())
	}
}
