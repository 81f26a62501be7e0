package dsm

import (
	"fmt"
	"sort"

	"nowomp/internal/engine"
	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// lockState is one Tmk lock. Lock ids are managed by host 0, matching
// TreadMarks' static lock-manager assignment.
//
// Mutual exclusion between simulated processes is enforced by the
// discrete-event engine: a requester parks and is granted the lock
// only when it is free and the request has the earliest (virtual
// request time, host id) key among the registered waiters. Because the
// engine always wakes the runnable proc with the lowest virtual time,
// a grant at instant T can never be pre-empted by a later-arriving
// request from before T — the conservative rule the old spin-and-
// reelect scheduler approximated is now exact, and grant order is
// fully independent of the Go scheduler.
type lockState struct {
	held bool
	// waiters maps ticket ids to virtual request times and requesters.
	waiters     map[uint64]lockWaiter
	nextTicket  uint64
	lastRelease simtime.Seconds
	lastHolder  HostID
	everHeld    bool
	// wl lists the procs parked in acquire; release notifies it so the
	// engine re-examines exactly the procs contending for this lock.
	wl engine.WaitList
	// reason is the park description, precomputed so contended acquires
	// in a hot loop do not format a string per claim.
	reason string
}

// lockWaiter is one queued acquire request.
type lockWaiter struct {
	at   simtime.Seconds
	host HostID
}

func newLockState(id int) *lockState {
	return &lockState{
		lastHolder: -1,
		waiters:    make(map[uint64]lockWaiter),
		reason:     fmt.Sprintf("lock %d", id),
	}
}

// acquire blocks until the calling proc holds the lock. Grants follow
// (virtual time, host id) order among registered waiters — host id,
// not arrival order, breaks virtual-time ties, so that symmetric
// processes requesting at the identical instant (a uniform loop's
// first dynamic claim, say) are granted in a reproducible order no
// matter how the Go scheduler interleaves them. Outside any
// engine-driven construct (sequential sections, tests driving the
// cluster directly) the lock is granted immediately when free; a
// held lock there is a self-deadlock and panics.
func (lk *lockState) acquire(c *Cluster, id int, clk *simtime.Clock, host HostID) {
	p := c.runningProc()
	if p == nil {
		if lk.held {
			panic(fmt.Sprintf("dsm: lock %d acquired while held, outside any engine-driven construct (self-deadlock)", id))
		}
		lk.held = true
		return
	}
	at := clk.Now()
	ticket := lk.nextTicket
	lk.nextTicket++
	lk.waiters[ticket] = lockWaiter{at: at, host: host}
	p.ParkOn(&lk.wl, lk.reason, func() (simtime.Seconds, bool) {
		if lk.held || !lk.isNext(ticket) {
			return 0, false
		}
		return at, true
	})
	delete(lk.waiters, ticket)
	lk.held = true
}

// isNext reports whether the ticket has the earliest (virtual time,
// host id, ticket) key among current waiters.
func (lk *lockState) isNext(ticket uint64) bool {
	mine := lk.waiters[ticket]
	for t, w := range lk.waiters {
		switch {
		case w.at != mine.at:
			if w.at < mine.at {
				return false
			}
		case w.host != mine.host:
			if w.host < mine.host {
				return false
			}
		case t < ticket:
			return false
		}
	}
	return true
}

// release frees the lock and notifies the parked waiters; the engine
// re-elects among them at its next dispatch.
func (lk *lockState) release(holder HostID, at simtime.Seconds) {
	lk.held = false
	lk.lastRelease = at
	lk.lastHolder = holder
	lk.everHeld = true
	lk.wl.Notify()
}

// LockHeld reports whether lock id is currently held (diagnostics).
func (c *Cluster) LockHeld(id int) bool {
	return c.locks.get(id).held
}

type lockTable struct {
	locks map[int]*lockState
}

func newLockTable() *lockTable { return &lockTable{locks: make(map[int]*lockState)} }

func (t *lockTable) get(id int) *lockState {
	lk := t.locks[id]
	if lk == nil {
		lk = newLockState(id)
		t.locks[id] = lk
	}
	return lk
}

// AcquireLock acquires lock id for host h, blocking until the current
// holder releases. The acquirer's clock advances past the releaser's
// release instant plus the measured acquire cost (178 us uncontended at
// the manager, up to 272 us when the request is forwarded to a distant
// holder). Acquire-side consistency then invalidates or upgrades local
// copies made stale by lock-release intervals it has not yet honoured.
func (c *Cluster) AcquireLock(id int, h *Host, clk *simtime.Clock) {
	lk := c.locks.get(id)
	lk.acquire(c, id, clk, h.id) // released by ReleaseLock

	clk.AdvanceTo(lk.lastRelease)
	manager := c.Master()
	forwarded := lk.everHeld && lk.lastHolder != manager.id && lk.lastHolder != h.id
	holderMachine := manager.machine
	if forwarded {
		holderMachine = c.Host(lk.lastHolder).machine
	}
	clk.Advance(c.costs.Lock(h.machine, manager.machine, holderMachine, forwarded))
	c.stats.LockAcquires++

	// Request to the manager; grant from manager or forwarded holder.
	c.fabric.Record(h.machine, manager.machine, msgHeader)
	granter := manager
	if lk.everHeld && lk.lastHolder != manager.id {
		holder := c.Host(lk.lastHolder)
		c.fabric.Record(manager.machine, holder.machine, msgHeader)
		granter = holder
	}
	c.fabric.Record(granter.machine, h.machine, msgHeader)

	c.honourReleases(h, clk)
}

// honourReleases performs acquire-side consistency: every page touched
// by a release interval the host has not yet synchronised with is
// invalidated, or — if the host has it dirty in its own open interval —
// upgraded in place by fetching and applying the missing diffs (the
// words are disjoint in a race-free program).
func (c *Cluster) honourReleases(h *Host, clk *simtime.Clock) {
	c.dir.mu.RLock()
	horizon := h.syncSeq
	// The log is ascending by sequence: the unsynchronised entries are a
	// suffix, found by binary search instead of rescanning the whole log
	// on every acquire.
	log := c.releaseLog
	lo := sort.Search(len(log), func(i int) bool { return log[i].seq > horizon })
	stale := append([]relEntry(nil), log[lo:]...)
	cur := c.seq
	c.dir.mu.RUnlock()

	seen := make(map[pageKey]bool, len(stale))
	for _, e := range stale {
		if seen[e.pk] {
			continue
		}
		seen[e.pk] = true
		c.proto.upgradeOrInvalidate(h, e.pk, clk)
	}
	h.syncSeq = cur
}

// ReleaseLock closes the host's open interval under the coherence
// protocol (its writes under the lock become committed diffs with
// fresh write notices) and releases lock id.
func (c *Cluster) ReleaseLock(id int, h *Host, clk *simtime.Clock) {
	lk := c.locks.get(id)

	c.dir.mu.Lock()
	c.proto.flushIntervalLocked(h, clk)
	c.dir.mu.Unlock()

	clk.Advance(c.costs.MsgOverhead(h.machine))
	lk.release(h.id, clk.Now())
}

// checkDirtyPeerRaces extends the sub-word race check to flush-path
// interval closes (lock releases and task handoffs): a peer host that
// currently holds the same page dirty wrote it concurrently with the
// interval just closed — no synchronisation orders the two — so any
// common modified word is a lost update in the making. The caller
// holds the directory write lock, which serialises all interval
// closes.
func (c *Cluster) checkDirtyPeerRaces(writer HostID, pk pageKey, d *page.Diff) {
	for _, h2 := range c.hosts {
		if h2.id == writer || !h2.active {
			continue
		}
		st2 := &h2.pages[pk.region][pk.page]
		var d2 *page.Diff
		if st2.dirty && st2.twin != nil {
			d2 = page.Make(st2.twin, st2.data)
		}
		if d2 == nil {
			continue
		}
		if w, ok := d.FirstOverlap(d2); ok {
			panic(c.wordRaceMessage(writer, h2.id, pk, w, "without synchronisation"))
		}
	}
}
