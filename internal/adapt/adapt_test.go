package adapt

import (
	"reflect"
	"testing"

	"nowomp/internal/dsm"
	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

func cluster(t *testing.T, hosts, active int) *dsm.Cluster {
	t.Helper()
	c, err := dsm.New(dsm.Config{MaxHosts: hosts})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < active; i++ {
		if _, err := c.Join(dsm.HostID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func team(n int) []dsm.HostID {
	t := make([]dsm.HostID, n)
	for i := range t {
		t[i] = dsm.HostID(i)
	}
	return t
}

func TestSubmitValidation(t *testing.T) {
	m := NewManager(Config{})
	if err := m.Submit(Event{Kind: KindLeave, Host: 0, At: 1}); err == nil {
		t.Fatal("master leave must be rejected")
	}
	if err := m.Submit(Event{Kind: KindLeave, Host: 1, At: -1}); err == nil {
		t.Fatal("negative event time must be rejected")
	}
	if err := m.Submit(Event{Kind: KindLeave, Host: 1, At: 5}); err != nil {
		t.Fatalf("valid submit failed: %v", err)
	}
	if m.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", m.PendingCount())
	}
}

func TestDefaultGraceApplied(t *testing.T) {
	m := NewManager(Config{})
	if m.Config().DefaultGrace != DefaultGrace {
		t.Fatalf("default grace = %v, want %v", m.Config().DefaultGrace, DefaultGrace)
	}
}

func TestNormalLeaveAtPoint(t *testing.T) {
	c := cluster(t, 4, 4)
	c.Alloc("a", 8*page.Size)
	m := NewManager(Config{})
	if err := m.Submit(Event{Kind: KindLeave, Host: 2, At: 1.0}); err != nil {
		t.Fatal(err)
	}
	res, err := m.AtAdaptationPoint(c, team(4), 2.0)
	if err != nil {
		t.Fatal(err)
	}
	want := []dsm.HostID{0, 1, 3}
	if !reflect.DeepEqual(res.Team, want) {
		t.Fatalf("team = %v, want %v", res.Team, want)
	}
	if len(res.Applied) != 1 || res.Applied[0].Urgent {
		t.Fatalf("applied = %+v, want one normal leave", res.Applied)
	}
	if res.GCElapsed <= 0 || res.Elapsed < res.GCElapsed {
		t.Fatalf("elapsed %v / gc %v inconsistent", res.Elapsed, res.GCElapsed)
	}
	if c.Host(2).Active() {
		t.Fatal("leaver still active")
	}
	if m.PendingCount() != 0 {
		t.Fatal("event still pending after application")
	}
}

func TestFutureEventsStayPending(t *testing.T) {
	c := cluster(t, 3, 3)
	m := NewManager(Config{})
	if err := m.Submit(Event{Kind: KindLeave, Host: 1, At: 100}); err != nil {
		t.Fatal(err)
	}
	res, err := m.AtAdaptationPoint(c, team(3), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) != 0 || m.PendingCount() != 1 {
		t.Fatal("future event must not be applied")
	}
	if !reflect.DeepEqual(res.Team, team(3)) {
		t.Fatal("team must be unchanged")
	}
}

func TestJoinWaitsForSpawn(t *testing.T) {
	c := cluster(t, 4, 3)
	c.Alloc("a", 4*page.Size)
	m := NewManager(Config{})
	model := c.Model()
	if err := m.Submit(Event{Kind: KindJoin, Host: 3, At: 1.0}); err != nil {
		t.Fatal(err)
	}
	// Too early: spawn+connect not finished.
	early := 1.0 + float64(model.SpawnTime)/2
	res, err := m.AtAdaptationPoint(c, team(3), simtime.Seconds(early))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) != 0 {
		t.Fatal("join applied before the new process was ready")
	}
	// Late enough.
	ready := simtime.Seconds(1.0) + model.SpawnTime + model.ConnectSetupTime + 0.001
	res, err = m.AtAdaptationPoint(c, team(3), ready)
	if err != nil {
		t.Fatal(err)
	}
	want := []dsm.HostID{0, 1, 2, 3}
	if !reflect.DeepEqual(res.Team, want) {
		t.Fatalf("team = %v, want %v", res.Team, want)
	}
	if !c.Host(3).Active() {
		t.Fatal("joiner not active")
	}
}

func TestSimultaneousEventsShareOneGC(t *testing.T) {
	c := cluster(t, 6, 6)
	c.Alloc("a", 12*page.Size)
	m := NewManager(Config{})
	if err := m.Submit(Event{Kind: KindLeave, Host: 4, At: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(Event{Kind: KindLeave, Host: 5, At: 0.6}); err != nil {
		t.Fatal(err)
	}
	gcs0 := c.Stats().GCs
	res, err := m.AtAdaptationPoint(c, team(6), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) != 2 {
		t.Fatalf("applied %d events, want 2", len(res.Applied))
	}
	if got := c.Stats().GCs - gcs0; got != 1 {
		t.Fatalf("GCs = %d, want 1 shared collection", got)
	}
	if !reflect.DeepEqual(res.Team, team(4)) {
		t.Fatalf("team = %v, want %v", res.Team, team(4))
	}
}

func TestUrgentLeaveMigratesAtJoin(t *testing.T) {
	c := cluster(t, 3, 3)
	r, _ := c.Alloc("a", 6*page.Size)
	// Make host 2 resident on some pages so the image has a size.
	clk := simtime.NewClock(0)
	buf := make([]byte, 8)
	c.Host(2).Read(r.ID, 0, buf, clk)

	m := NewManager(Config{DefaultGrace: 1.0})
	if err := m.Submit(Event{Kind: KindLeave, Host: 2, At: 1.0}); err != nil {
		t.Fatal(err)
	}
	tm := team(3)
	// Phase ends long after the 2.0 s deadline: urgent.
	arr := []simtime.Seconds{5, 5, 10}
	plans := m.AdjustJoin(c, tm, arr)
	if len(plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(plans))
	}
	p := plans[0]
	if p.Leaver != 2 || p.Target != 0 {
		t.Fatalf("plan = leaver %d target %d, want 2 -> 0 (successor in team order)", p.Leaver, p.Target)
	}
	if p.Start != 2.0 {
		t.Fatalf("migration start = %v, want deadline 2.0", p.Start)
	}
	// Leaver's remaining 8 s plus target's remaining work serialise.
	if arr[2] <= 10 || arr[0] != arr[2] {
		t.Fatalf("arrivals = %v: leaver and target must be delayed together", arr)
	}
	if arr[1] != 5 {
		t.Fatalf("bystander arrival = %v, want 5", arr[1])
	}
	// The leave then completes as a (recorded-urgent) leave at the
	// adaptation point.
	res, err := m.AtAdaptationPoint(c, tm, arr[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) != 1 || !res.Applied[0].Urgent || res.Applied[0].Plan == nil {
		t.Fatalf("applied = %+v, want one urgent leave with plan", res.Applied)
	}
	if !reflect.DeepEqual(res.Team, team(2)) {
		t.Fatalf("team = %v, want %v", res.Team, team(2))
	}
}

func TestGraceLongEnoughAvoidsMigration(t *testing.T) {
	c := cluster(t, 3, 3)
	c.Alloc("a", 2*page.Size)
	m := NewManager(Config{DefaultGrace: 100})
	if err := m.Submit(Event{Kind: KindLeave, Host: 1, At: 1.0}); err != nil {
		t.Fatal(err)
	}
	arr := []simtime.Seconds{5, 5, 5}
	if plans := m.AdjustJoin(c, team(3), arr); len(plans) != 0 {
		t.Fatalf("migration happened despite sufficient grace: %+v", plans)
	}
	if arr[1] != 5 {
		t.Fatal("arrivals must be untouched for normal leaves")
	}
}

func TestPerEventGraceOverride(t *testing.T) {
	c := cluster(t, 3, 3)
	c.Alloc("a", 2*page.Size)
	m := NewManager(Config{DefaultGrace: 100})
	// Tiny per-event grace forces urgency despite the long default.
	if err := m.Submit(Event{Kind: KindLeave, Host: 1, At: 1.0, Grace: 0.5}); err != nil {
		t.Fatal(err)
	}
	arr := []simtime.Seconds{5, 9, 5}
	if plans := m.AdjustJoin(c, team(3), arr); len(plans) != 1 {
		t.Fatal("per-event grace override did not trigger migration")
	}
}

func TestReassignShiftDown(t *testing.T) {
	tm := []dsm.HostID{0, 1, 2, 3, 4}
	got := Reassign(tm, map[dsm.HostID]bool{2: true}, nil, ShiftDown)
	if !reflect.DeepEqual(got, []dsm.HostID{0, 1, 3, 4}) {
		t.Fatalf("got %v", got)
	}
	got = Reassign(tm, map[dsm.HostID]bool{1: true, 4: true}, []dsm.HostID{7}, ShiftDown)
	if !reflect.DeepEqual(got, []dsm.HostID{0, 2, 3, 7}) {
		t.Fatalf("got %v", got)
	}
}

func TestReassignSwapLast(t *testing.T) {
	tm := []dsm.HostID{0, 1, 2, 3, 4}
	got := Reassign(tm, map[dsm.HostID]bool{2: true}, nil, SwapLast)
	if !reflect.DeepEqual(got, []dsm.HostID{0, 1, 4, 3}) {
		t.Fatalf("got %v", got)
	}
	// Leaver at the end: nothing to swap.
	got = Reassign(tm, map[dsm.HostID]bool{4: true}, nil, SwapLast)
	if !reflect.DeepEqual(got, []dsm.HostID{0, 1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
	// Two leavers, one at the end.
	got = Reassign(tm, map[dsm.HostID]bool{1: true, 4: true}, nil, SwapLast)
	if !reflect.DeepEqual(got, []dsm.HostID{0, 3, 2}) {
		t.Fatalf("got %v", got)
	}
	// Everyone but the master leaves.
	got = Reassign(tm, map[dsm.HostID]bool{1: true, 2: true, 3: true, 4: true}, nil, SwapLast)
	if !reflect.DeepEqual(got, []dsm.HostID{0}) {
		t.Fatalf("got %v", got)
	}
}

func TestReassignPreservesInput(t *testing.T) {
	tm := []dsm.HostID{0, 1, 2}
	_ = Reassign(tm, map[dsm.HostID]bool{1: true}, []dsm.HostID{5}, ShiftDown)
	if !reflect.DeepEqual(tm, []dsm.HostID{0, 1, 2}) {
		t.Fatalf("input team mutated: %v", tm)
	}
	_ = Reassign(tm, map[dsm.HostID]bool{1: true}, nil, SwapLast)
	if !reflect.DeepEqual(tm, []dsm.HostID{0, 1, 2}) {
		t.Fatalf("input team mutated by swap-last: %v", tm)
	}
}

func TestLogAccumulates(t *testing.T) {
	c := cluster(t, 3, 3)
	c.Alloc("a", 2*page.Size)
	m := NewManager(Config{})
	if err := m.Submit(Event{Kind: KindLeave, Host: 2, At: 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AtAdaptationPoint(c, team(3), 1.0); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(Event{Kind: KindJoin, Host: 2, At: 1.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AtAdaptationPoint(c, []dsm.HostID{0, 1}, 10.0); err != nil {
		t.Fatal(err)
	}
	log := m.Log()
	if len(log) != 2 {
		t.Fatalf("log has %d records, want 2", len(log))
	}
	if log[0].Event.Kind != KindLeave || log[1].Event.Kind != KindJoin {
		t.Fatalf("log order wrong: %+v", log)
	}
}

// The filtered adaptation entry point: ineligible events stay queued
// while eligible ones apply, which is how the task runtime holds a
// leave until the departing process holds no task state.
func TestAtAdaptationPointWhereFiltersEvents(t *testing.T) {
	c := cluster(t, 6, 4)
	m := NewManager(Config{})
	if err := m.Submit(Event{Kind: KindLeave, Host: 2, At: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Submit(Event{Kind: KindLeave, Host: 3, At: 1}); err != nil {
		t.Fatal(err)
	}
	holdHost3 := func(e Event) bool { return e.Host != 3 }

	if !m.HasEligible(c, team(4), 10, holdHost3) {
		t.Fatal("host 2's leave should be eligible")
	}
	res, err := m.AtAdaptationPointWhere(c, team(4), 10, holdHost3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) != 1 || res.Applied[0].Event.Host != 2 {
		t.Fatalf("applied %+v, want exactly host 2's leave", res.Applied)
	}
	if want := []dsm.HostID{0, 1, 3}; !reflect.DeepEqual(res.Team, want) {
		t.Fatalf("team %v, want %v", res.Team, want)
	}
	if m.PendingCount() != 1 {
		t.Fatalf("pending %d, want the held leave", m.PendingCount())
	}

	// Released filter: the held leave now applies.
	res, err = m.AtAdaptationPointWhere(c, res.Team, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Applied) != 1 || res.Applied[0].Event.Host != 3 {
		t.Fatalf("applied %+v, want host 3's leave", res.Applied)
	}
	if m.PendingCount() != 0 {
		t.Fatalf("pending %d after release, want 0", m.PendingCount())
	}
}

// HasEligible mirrors the apply-side classification, including join
// maturity, without consuming anything.
func TestHasEligibleMaturity(t *testing.T) {
	c := cluster(t, 6, 2)
	m := NewManager(Config{})
	if err := m.Submit(Event{Kind: KindJoin, Host: 4, At: 1}); err != nil {
		t.Fatal(err)
	}
	lead := c.Model().SpawnTime + c.Model().ConnectSetupTime
	if m.HasEligible(c, team(2), 1+lead-0.001, nil) {
		t.Fatal("join eligible before its spawn lead time")
	}
	if !m.HasEligible(c, team(2), 1+lead, nil) {
		t.Fatal("join not eligible after its spawn lead time")
	}
	if m.PendingCount() != 1 {
		t.Fatal("HasEligible must not consume events")
	}
}
