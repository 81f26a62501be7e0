package dsm

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// homeProtocol is home-based lazy release consistency. It serves two
// ProtocolKinds: HLRC runs the plain home-based flow, and Hybrid turns
// on per-page adaptive mechanisms, all gated by one bool.
//
// The home-based flow (HLRC):
//
//   - Every page has a home host, assigned round-robin by page across
//     the hosts active at allocation time (the directory owner field
//     doubles as the home); a leaver's pages re-home round-robin.
//   - At interval close (barrier, lock release, task handoff) each
//     writer diffs against its twin and pushes the diff to the home,
//     where it is applied at once. No diff outlives its close, so GC
//     only prunes stale copies, at zero cost and zero traffic.
//   - A fault pulls the whole page from the home in one round trip,
//     trading bytes for messages against Tmk's writer-by-writer chase.
//
// Hybrid specializes that flow per page according to the classifier in
// classify.go:
//
//   - Home migration. A sole writer that is current at an interval
//     close takes the page's home with it when that costs nothing —
//     either its diff is dense (so future faulters need whole pages
//     and the retained-diff window at the old home is worthless) or
//     the window holds only the writer's own diffs (so nothing is
//     lost by moving it). The flip is a directory update riding the
//     existing close broadcast: no data moves, because the new home
//     already holds the current page. A falsely-shared page whose
//     recent closes are dominated by one writer migrates the hard
//     way: the old home ships the merged page to the dominant writer,
//     priced as a page transfer on the actual src→dst link — paid
//     once, amortized by the dominance requirement.
//   - Diff-density transfer switching. The home retains a bounded
//     window of recently applied diffs. A faulting reader whose stale
//     copy is inside the window pulls just the missing diffs in one
//     message when they are sparse; a reader outside the window, or
//     one whose gap is denser than a page, pulls the whole page.
//     Sparse rotating writers (a claim counter) therefore cost
//     Tmk-like bytes in HLRC-like message counts, while dense writers
//     (a migratory record) keep HLRC's whole-page economics.
//   - Single-writer elision. A page the classifier has proven
//     single-writer (one historical writer, no remote readers), whose
//     writer is its own home and with no other valid copy anywhere,
//     skips twin creation and diff work entirely: with one writer
//     there is no concurrent-writer race to evidence and no reader to
//     serve, so the commit is a sequence-number update. A remote host
//     touching the page later reclassifies it and the elision stops.
//
// With adaptive off the classifier never observes, nothing is retained
// and no twin is elided, so the window branches below never fire.
// Correctness never depends on the classifier: every specialization
// preserves "the home is current as of the last committed interval",
// so a misclassified page pays extra traffic, never wrong data.
type homeProtocol struct {
	c    *Cluster
	kind ProtocolKind
	// adaptive enables the hybrid mechanisms: classification, home
	// migration, retained diff windows and twin elision.
	adaptive bool
	// rr is the round-robin home-assignment cursor, advancing across
	// regions so multi-region programs balance too.
	rr int
	// recs/chains hold the per-page classifier history and retained
	// diff windows, indexed like the directory ([region][page]).
	recs   [][]classRec
	chains [][]homeChain
	// retained is the total wire size of all retained diffs, the
	// protocol's reclaimable storage.
	retained int
}

// chainEntry is one retained diff: the interval it committed, the
// writer that authored it, and the diff itself.
type chainEntry struct {
	seq    int32
	writer HostID
	diff   *page.Diff
}

// homeChain is the home-retained diff window of one page. Invariant:
// every interval committed to the page with sequence in (floor,
// latest] is present as entries (commits that retained no diff raise
// floor instead), so a copy with appliedSeq >= floor can be patched
// current by applying the entries newer than it, in order.
type homeChain struct {
	floor   int32
	entries []chainEntry
	bytes   int
}

const (
	// maxChainEntries/maxChainBytes bound one page's retained window;
	// beyond either the oldest interval is dropped and the floor rises.
	// The byte bound (one page per page: retaining more than a page of
	// diffs can never beat re-sending the page) is the real storage cap;
	// the entry bound only backstops degenerate empty-diff streams, and
	// must stay deep enough that a slow host revisiting a sparsely
	// written page after many closes still lands inside the window.
	maxChainEntries = 64
	maxChainBytes   = page.Size
	// denseFlipWire: a sole writer whose close diff reaches half a page
	// takes the home with it — faulters of so dense a page need whole
	// pages anyway, so the push to a remote home buys nothing.
	denseFlipWire = page.Size / 2
	// domMigrateRun: consecutive closes one writer must dominate before
	// a falsely-shared page's home migrates to it with a paid transfer.
	domMigrateRun = 3
)

// Kind identifies the protocol.
func (hp *homeProtocol) Kind() ProtocolKind { return hp.kind }

func (hp *homeProtocol) rec(pk pageKey) *classRec {
	return &hp.recs[pk.region][pk.page]
}

func (hp *homeProtocol) chain(pk pageKey) *homeChain {
	return &hp.chains[pk.region][pk.page]
}

// retain appends a committed diff to the page's window, dropping the
// oldest intervals when the bounds are exceeded.
func (hp *homeProtocol) retain(ch *homeChain, seq int32, w HostID, d *page.Diff) {
	ch.entries = append(ch.entries, chainEntry{seq: seq, writer: w, diff: d})
	wire := d.WireSize()
	ch.bytes += wire
	hp.retained += wire
	for len(ch.entries) > maxChainEntries || ch.bytes > maxChainBytes {
		// Drop the oldest interval whole: the floor must never split
		// the entries of one close.
		s := ch.entries[0].seq
		if s == seq {
			break // never evict the interval being committed
		}
		i := 0
		for i < len(ch.entries) && ch.entries[i].seq == s {
			n := ch.entries[i].diff.WireSize()
			ch.bytes -= n
			hp.retained -= n
			i++
		}
		ch.entries = append(ch.entries[:0], ch.entries[i:]...)
		ch.floor = s
	}
}

// advance commits interval seq without a retained diff: the floor
// rises, and entries the floor passed are dropped.
func (hp *homeProtocol) advance(ch *homeChain, seq int32) {
	if seq > ch.floor {
		ch.floor = seq
	}
	i := 0
	for i < len(ch.entries) && ch.entries[i].seq <= ch.floor {
		n := ch.entries[i].diff.WireSize()
		ch.bytes -= n
		hp.retained -= n
		i++
	}
	if i > 0 {
		ch.entries = append(ch.entries[:0], ch.entries[i:]...)
	}
}

// keepOnly drops every entry not authored by w — a home flip carries
// only the new home's own diffs — raising the floor past the drops.
func (hp *homeProtocol) keepOnly(ch *homeChain, w HostID) {
	floor := ch.floor
	for _, e := range ch.entries {
		if e.writer != w && e.seq > floor {
			floor = e.seq
		}
	}
	if floor == ch.floor {
		return
	}
	kept := ch.entries[:0]
	bytes := 0
	for _, e := range ch.entries {
		if e.writer == w && e.seq > floor {
			kept = append(kept, e)
			bytes += e.diff.WireSize()
		}
	}
	hp.retained += bytes - ch.bytes
	ch.entries = kept
	ch.bytes = bytes
	ch.floor = floor
}

// onlyWriter reports whether every retained entry was authored by w.
func (ch *homeChain) onlyWriter(w HostID) bool {
	for _, e := range ch.entries {
		if e.writer != w {
			return false
		}
	}
	return true
}

// window returns the entries with sequence > after and their total
// wire size.
func (ch *homeChain) window(after int32) ([]chainEntry, int) {
	i := 0
	for i < len(ch.entries) && ch.entries[i].seq <= after {
		i++
	}
	win := ch.entries[i:]
	wire := 0
	for _, e := range win {
		wire += e.diff.WireSize()
	}
	return win, wire
}

// initRegion assigns round-robin homes (the master keeps a copy too,
// for the sequential sections) and grows the classifier and window
// tables.
func (hp *homeProtocol) initRegion(r *Region) {
	c := hp.c
	active := c.ActiveHosts()
	m := c.Master()
	for p := 0; p < r.NPages; p++ {
		home := active[hp.rr%len(active)]
		hp.rr++
		c.dir.pages[r.ID][p].owner = home
		hh := c.Host(home)
		st := &hh.pages[r.ID][p]
		st.data = c.newPage()
		st.valid = true
		if home != m.id {
			st := &m.pages[r.ID][p]
			st.data = c.newPage()
			st.valid = true
		}
	}
	hp.recs = append(hp.recs, newClassRecs(r.NPages))
	hp.chains = append(hp.chains, make([]homeChain, r.NPages))
}

// leaveStrategy: HLRC's leaver pages always re-home round-robin across
// the remaining hosts. Hybrid's migrated homes sit at their writers
// like Tmk owners, so it honours the configured handoff instead.
func (hp *homeProtocol) leaveStrategy(s LeaveStrategy) LeaveStrategy {
	if !hp.adaptive {
		return LeaveDirectHandoff
	}
	return s
}

// storageLocked reports the retained-window bytes; past the threshold
// the barrier triggers a (free) collection that resets the windows.
// Without retention (HLRC) it stays 0 and the trigger never fires.
func (hp *homeProtocol) storageLocked() int { return hp.retained }

// elideTwin implements the single-writer elision decision for one
// first-write fault: the page must be classified single-writer with h
// as that writer, h must be its home, and no other host may hold a
// valid copy. Counted, and the caller skips twin creation entirely.
// HLRC always twins.
func (hp *homeProtocol) elideTwin(h *Host, pk pageKey) bool {
	if !hp.adaptive {
		return false
	}
	cr := hp.rec(pk)
	if cr.class != classSingleWriter || cr.writerA != h.id {
		return false
	}
	c := hp.c
	if c.dir.meta(pk.region, pk.page).owner != h.id {
		return false
	}
	for _, o := range c.hosts {
		if o.id != h.id && o.pages[pk.region][pk.page].valid {
			return false
		}
	}
	c.stats.ElidedTwins++
	return true
}

// fault makes the page readable on h: a copy inside the home's
// retained window pulls just the missing diffs when they are sparse,
// anything else pulls the whole page from the home.
func (hp *homeProtocol) fault(h *Host, pk pageKey, clk *simtime.Clock) {
	c := hp.c
	meta := c.dir.meta(pk.region, pk.page)
	home := meta.owner
	if home == h.id {
		panic(fmt.Sprintf("dsm: %v: home %d of page %d/%d has no valid copy", hp.kind, h.id, pk.region, pk.page))
	}
	if hp.adaptive {
		cr := hp.rec(pk)
		cr.observeRead(h.id)
		cr.setClass(&c.stats, cr.classify())
	}

	st := &h.pages[pk.region][pk.page]
	ch := hp.chain(pk)
	if st.data != nil && st.appliedSeq >= ch.floor {
		if win, wire := ch.window(st.appliedSeq); len(win) > 0 && wire < page.Size {
			hp.fetchWindow(h, c.Host(home), win, wire, clk)
			for _, e := range win {
				e.diff.Apply(st.data)
			}
			st.appliedSeq = c.Host(home).pages[pk.region][pk.page].appliedSeq
			st.valid = true
			return
		}
	}
	data, applied := c.copyPageFrom(h, c.Host(home), pk, "home", clk)
	st = &h.pages[pk.region][pk.page]
	c.releasePage(st.data)
	st.data = data
	st.appliedSeq = applied
	st.valid = true
}

// fetchWindow prices one bundled diff-window transfer from the home:
// one request, one response carrying every missing diff.
func (hp *homeProtocol) fetchWindow(h, src *Host, win []chainEntry, wire int, clk *simtime.Clock) {
	c := hp.c
	c.fabric.Record(h.machine, src.machine, msgHeader)
	c.fabric.Record(src.machine, h.machine, wire+msgHeader)
	clk.Advance(c.costs.DiffFetch(h.machine, src.machine, wire))
	c.stats.DiffFetches += int64(len(win))
	c.stats.DiffBytes += int64(wire)
}

// takeDiff diffs the writer's page against its twin and consumes the
// twin/dirty state, charging diff creation to clk. Returns nil when
// the page is unchanged.
func (hp *homeProtocol) takeDiff(h *Host, pk pageKey, clk *simtime.Clock) *page.Diff {
	c := hp.c
	st := &h.pages[pk.region][pk.page]
	d := page.Make(st.twin, st.data)
	c.releasePage(st.twin)
	st.twin = nil
	st.dirty = false
	if d == nil {
		return nil
	}
	c.stats.DiffsCreated++
	clk.Advance(c.costs.DiffCreate(h.machine, page.Size))
	return d
}

// pushDiff ships a taken diff to the home and applies it there; a
// writer that is its own home only commits the sequence.
func (hp *homeProtocol) pushDiff(h *Host, pk pageKey, home HostID, d *page.Diff, s int32, clk *simtime.Clock) {
	c := hp.c
	if home != h.id {
		hh := c.Host(home)
		wire := d.WireSize()
		c.fabric.Record(h.machine, hh.machine, wire+msgHeader)
		c.fabric.Record(hh.machine, h.machine, msgHeader)
		clk.Advance(c.costs.DiffFlush(h.machine, hh.machine, wire))
		c.stats.HomeFlushes++
		c.stats.HomeFlushBytes += int64(wire)
		hp.applyAtHome(h.id, hh, pk, d, s)
	} else {
		st := &h.pages[pk.region][pk.page]
		st.appliedSeq = s
		st.valid = true
	}
}

// applyAtHome applies a pushed diff to the home's copy. A home with the
// page dirty and twinned first checks the incoming words against its
// own (an overlap is a sub-word race, caught before the apply destroys
// the evidence) and patches its twin too, so its own flush carries
// only its words. An elided home (dirty, no twin) has no diffable
// evidence — its sole-writer proof already failed if a remote diff
// arrives — so the words just merge (disjoint in a race-free program).
func (hp *homeProtocol) applyAtHome(from HostID, hh *Host, pk pageKey, d *page.Diff, s int32) {
	st := &hh.pages[pk.region][pk.page]
	if st.data == nil {
		panic(fmt.Sprintf("dsm: %v: home %d of page %d/%d holds no copy", hp.kind, hh.id, pk.region, pk.page))
	}
	if st.dirty && st.twin != nil {
		if own := page.Make(st.twin, st.data); own != nil {
			if w, ok := d.FirstOverlap(own); ok {
				panic(hp.c.wordRaceMessage(from, hh.id, pk, w, "without synchronisation"))
			}
		}
		d.Apply(st.twin)
	}
	d.Apply(st.data)
	st.appliedSeq = s
	st.valid = true
}

// closePage commits interval s for one page at a barrier (or a forced
// interval close). Hybrid observes the writers for the classifier and
// takes the sole-writer path for one writer; HLRC commits every close
// through the concurrent-writer path.
func (hp *homeProtocol) closePage(pk pageKey, writers []HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := hp.c
	pm := c.dir.metaLocked(pk.region, pk.page)
	cr := hp.rec(pk)
	if hp.adaptive {
		cr.observeClose(writers)
		cr.setClass(&c.stats, cr.classify())
	}

	if hp.adaptive && len(writers) == 1 {
		hp.closeSole(pk, pm, cr, writers[0], s, active, flush)
		return
	}
	hp.closeMulti(pk, pm, cr, writers, s, active, flush)
}

// closeSole commits a close with exactly one writer.
func (hp *homeProtocol) closeSole(pk pageKey, pm *pageMeta, cr *classRec, w HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := hp.c
	h := c.Host(w)
	st := &h.pages[pk.region][pk.page]
	ch := hp.chain(pk)
	home := pm.owner
	prevLatest := pm.latestSeq()

	if st.dirty && st.twin == nil {
		// Elided page: the writer is its own home and no diff exists.
		// Commit conservatively (the page is assumed changed) at the
		// cost of a sequence update. The home cannot have moved while
		// the page was elided-dirty: every re-homing path refuses an
		// elided-dirty home.
		if home != w {
			panic(fmt.Sprintf("dsm: %v: elided page %d/%d closed by %d but homed at %d", hp.kind, pk.region, pk.page, w, home))
		}
		st.dirty = false
		st.appliedSeq = s
		c.stats.ElidedDiffs++
		pm.baseSeq = s
		hp.advance(ch, s)
		hp.invalidateStale(pk, w, s, active)
		return
	}

	wasCurrent := st.appliedSeq >= prevLatest
	if !wasCurrent {
		// The writer's copy misses interim commits: push its diff to
		// the home, then the writer goes invalid.
		clk := simtime.NewClock(0)
		d := hp.takeDiff(h, pk, clk)
		flush[w] += clk.Now()
		if d == nil {
			return
		}
		clk = simtime.NewClock(0)
		hp.pushDiff(h, pk, home, d, s, clk)
		flush[w] += clk.Now()
		hp.retain(ch, s, w, d)
		pm.baseSeq = s
		st.valid = false
		hp.invalidateStale(pk, home, s, active)
		return
	}

	// Current sole writer. Take the diff first: a rewrite of the same
	// values commits nothing and invalidates nobody (the parents'
	// economy — under a shifting schedule another host's still-current
	// copy must survive an unchanged close). Pages proven single-writer
	// skip this work through the elided branch above instead.
	clk := simtime.NewClock(0)
	d := hp.takeDiff(h, pk, clk)
	flush[w] += clk.Now()
	if d == nil {
		return
	}
	wire := d.WireSize()

	// Home flip: free when the writer's diff is dense (windows are
	// worthless for this page) or the window holds only the writer's
	// own diffs (nothing is lost). Otherwise the home stays put and
	// the diff is pushed to it. A home holding the page elided-dirty
	// is never flipped away from — its uncommitted words exist nowhere
	// else.
	homeSt := &c.Host(home).pages[pk.region][pk.page]
	elidedHome := home != w && homeSt.dirty && homeSt.twin == nil
	if home != w && !elidedHome && (ch.onlyWriter(w) || wire >= denseFlipWire) {
		pm.owner = w
		home = w
		hp.keepOnly(ch, w)
		c.stats.HomeMigrations++
	}
	if home != w {
		clk := simtime.NewClock(0)
		hp.pushDiff(h, pk, home, d, s, clk)
		flush[w] += clk.Now()
	}
	hp.retain(ch, s, w, d)
	st.appliedSeq = s
	pm.baseSeq = s
	hp.invalidateStale(pk, w, s, active)
}

// closeMulti commits a close with concurrent writers (under HLRC, every
// close): every diff is taken first, word-disjointness is asserted
// while the evidence is intact, each diff is pushed to (and, when
// adaptive, retained at) the home, stale copies are invalidated, and
// the dominance rule may migrate the home with a paid page transfer.
func (hp *homeProtocol) closeMulti(pk pageKey, pm *pageMeta, cr *classRec, writers []HostID, s int32, active []HostID, flush []simtime.Seconds) {
	c := hp.c
	ch := hp.chain(pk)
	home := pm.owner
	prevLatest := pm.latestSeq()

	elided := false
	var made []writerDiff
	for _, w := range writers {
		h := c.Host(w)
		st := &h.pages[pk.region][pk.page]
		if st.dirty && st.twin == nil {
			// An elided home caught with a concurrent writer: its words
			// are already in its own (the home's) copy; no evidence
			// diff exists.
			st.dirty = false
			c.stats.ElidedDiffs++
			elided = true
			continue
		}
		clk := simtime.NewClock(0)
		d := hp.takeDiff(h, pk, clk)
		flush[w] += clk.Now()
		if d != nil {
			made = append(made, writerDiff{writer: w, diff: d})
		}
	}
	c.checkWordRaces(pk, made)
	if len(made) == 0 && !elided {
		return
	}
	for _, wd := range made {
		h := c.Host(wd.writer)
		clk := simtime.NewClock(0)
		hp.pushDiff(h, pk, home, wd.diff, s, clk)
		flush[wd.writer] += clk.Now()
	}
	if elided {
		// The elided writer's words are not in any diff: the window
		// cannot cover this interval.
		if c.Host(home).pages[pk.region][pk.page].appliedSeq < s {
			st := &c.Host(home).pages[pk.region][pk.page]
			st.appliedSeq = s
			st.valid = true
		}
		hp.advance(ch, s)
	} else if hp.adaptive {
		for _, wd := range made {
			hp.retain(ch, s, wd.writer, wd.diff)
		}
	}
	pm.baseSeq = s

	sole := HostID(-1)
	if !elided && len(made) == 1 {
		h := c.Host(made[0].writer)
		if h.pages[pk.region][pk.page].appliedSeq >= prevLatest {
			sole = made[0].writer
		}
	}
	if elided {
		sole = home // the elided writer is its own home and is current
	}
	for _, id := range active {
		if id == pm.owner {
			continue
		}
		h := c.Host(id)
		st := &h.pages[pk.region][pk.page]
		if id == sole && st.valid && st.appliedSeq >= prevLatest {
			st.appliedSeq = s
		} else if st.valid && st.appliedSeq < s {
			st.valid = false
		}
	}

	// Dominant-writer migration: a falsely-shared page whose last
	// domMigrateRun closes all include one writer re-homes to it, the
	// old home shipping the merged page across the actual link. Only
	// the adaptive classifier ever tags a page falsely shared.
	dom := cr.domWriter
	if cr.class == classFalselyShared && cr.domRun >= domMigrateRun &&
		dom != pm.owner && c.Host(dom).active {
		clk := simtime.NewClock(0)
		data, applied := c.copyPageFrom(c.Host(dom), c.Host(pm.owner), pk, "home", clk)
		flush[dom] += clk.Now()
		dst := &c.Host(dom).pages[pk.region][pk.page]
		c.releasePage(dst.data)
		dst.data = data
		dst.appliedSeq = applied
		dst.valid = true
		pm.owner = dom
		hp.keepOnly(ch, dom)
		c.stats.HomeMigrations++
		c.stats.HomeMigrationBytes += page.Size
	}
}

// invalidateStale invalidates every active copy other than keep's that
// misses interval s. keep (the current sole writer or home) advances
// to s instead.
func (hp *homeProtocol) invalidateStale(pk pageKey, keep HostID, s int32, active []HostID) {
	c := hp.c
	for _, id := range active {
		h := c.Host(id)
		st := &h.pages[pk.region][pk.page]
		if id == keep {
			if st.valid {
				st.appliedSeq = s
			}
			continue
		}
		if st.valid && st.appliedSeq < s {
			st.valid = false
		}
	}
}

// flushIntervalLocked commits h's open interval on a release path,
// pushing each written page's diff to its home and logging the page
// for later acquirers. When adaptive, a dense diff from a current
// writer first flips the home to the writer, and every diff is
// retained in the home's window. The caller holds the directory write
// lock.
func (hp *homeProtocol) flushIntervalLocked(h *Host, clk *simtime.Clock) int {
	c := hp.c
	c.seq++
	s := c.seq
	made := 0
	soleWriters := [1]HostID{h.id}
	for _, pk := range h.takeWritten() {
		pm := c.dir.metaLocked(pk.region, pk.page)
		if hp.adaptive {
			cr := hp.rec(pk)
			cr.observeClose(soleWriters[:])
			cr.setClass(&c.stats, cr.classify())
		}
		ch := hp.chain(pk)
		prevLatest := pm.latestSeq()
		st := &h.pages[pk.region][pk.page]

		if st.dirty && st.twin == nil {
			// Elided page flushed under a lock: commit conservatively.
			st.dirty = false
			st.appliedSeq = s
			c.stats.ElidedDiffs++
			pm.baseSeq = s
			hp.advance(ch, s)
			c.releaseLog = append(c.releaseLog, relEntry{pk: pk, seq: s})
			continue
		}

		wasCurrent := st.appliedSeq >= prevLatest
		d := hp.takeDiff(h, pk, clk)
		if d == nil {
			continue
		}
		wire := d.WireSize()
		homeSt := &c.Host(pm.owner).pages[pk.region][pk.page]
		elidedHome := homeSt.dirty && homeSt.twin == nil
		if hp.adaptive && wasCurrent && pm.owner != h.id && !elidedHome && (ch.onlyWriter(h.id) || wire >= denseFlipWire) {
			pm.owner = h.id
			hp.keepOnly(ch, h.id)
			c.stats.HomeMigrations++
		}
		hp.pushDiff(h, pk, pm.owner, d, s, clk)
		if hp.adaptive {
			hp.retain(ch, s, h.id, d)
		}
		if pm.owner != h.id {
			st := &h.pages[pk.region][pk.page]
			if wasCurrent {
				st.appliedSeq = s
			} else {
				st.valid = false
			}
		}
		pm.baseSeq = s
		c.releaseLog = append(c.releaseLog, relEntry{pk: pk, seq: s})
		made++
		c.checkDirtyPeerRaces(h.id, pk, d)
	}
	if made > 0 && shouldPrune(len(c.releaseLog)) {
		c.pruneReleaseLog()
	}
	return made
}

// upgradeOrInvalidate performs acquire-side consistency for one page:
// a stale clean copy goes invalid; a stale dirty copy inside the
// home's window is patched in place (diffs applied to data and twin,
// as the Tmk upgrade path does), otherwise the host's own words are
// overlaid on a fresh home page, which also becomes the new twin.
func (hp *homeProtocol) upgradeOrInvalidate(h *Host, pk pageKey, clk *simtime.Clock) {
	c := hp.c
	meta := c.dir.meta(pk.region, pk.page)
	latest := meta.latestSeq()
	st := &h.pages[pk.region][pk.page]
	if !st.valid || st.appliedSeq >= latest {
		return
	}
	if !st.dirty {
		st.valid = false
		return
	}
	ch := hp.chain(pk)
	if st.appliedSeq >= ch.floor {
		if win, wire := ch.window(st.appliedSeq); len(win) > 0 && wire < page.Size {
			hp.fetchWindow(h, c.Host(meta.owner), win, wire, clk)
			for _, e := range win {
				e.diff.Apply(st.data)
				if st.twin != nil {
					// Committed remote words, not this host's: patch the
					// twin too so the eventual close diff carries only
					// the host's own writes.
					e.diff.Apply(st.twin)
				}
			}
			if st.appliedSeq < latest {
				st.appliedSeq = latest
			}
			return
		}
	}
	own := page.Make(st.twin, st.data)
	c.releasePage(st.twin)
	c.releasePage(st.data)
	data, applied := c.copyPageFrom(h, c.Host(meta.owner), pk, "home", clk)
	st = &h.pages[pk.region][pk.page]
	st.twin = c.pagePool.Copy(data)
	st.data = data
	own.Apply(st.data)
	st.appliedSeq = applied
}

// runGCLocked prunes stale copies and normalises sequence numbers
// (homes are always current, so no data moves and no time is charged),
// and resets the retained windows and the classifier: an adaptation
// redraws the partition map, so the old sharing history no longer
// describes the pages it tagged.
func (hp *homeProtocol) runGCLocked(active []HostID) simtime.Seconds {
	c := hp.c
	gcSeq := c.seq
	c.stats.GCs++
	for ri := range c.dir.pages {
		r := RegionID(ri)
		for p := range c.dir.pages[ri] {
			pm := &c.dir.pages[ri][p]
			latest := pm.latestSeq()
			for _, h := range c.hosts {
				st := &h.pages[r][p]
				c.releasePage(st.twin)
				st.twin = nil
				st.dirty = false
				switch {
				case h.id == pm.owner:
					if st.data == nil {
						panic(fmt.Sprintf("dsm: %v: gc: home %d of page %d/%d holds no copy", hp.kind, pm.owner, r, p))
					}
					st.appliedSeq = gcSeq
				case st.valid && st.appliedSeq >= latest:
					st.appliedSeq = gcSeq
				default:
					c.releasePage(st.data)
					st.data = nil
					st.valid = false
					st.appliedSeq = 0
				}
			}
			pm.clearNotices()
			pm.baseSeq = gcSeq
			ch := &hp.chains[ri][p]
			hp.retained -= ch.bytes
			ch.entries = nil
			ch.bytes = 0
			ch.floor = gcSeq
			hp.recs[ri][p].reset(&c.stats)
		}
	}
	c.releaseLog = c.releaseLog[:0]
	return 0
}
