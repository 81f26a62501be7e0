package dsm

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/simtime"
)

// ProtocolKind selects the coherence protocol a cluster runs. The zero
// value is Tmk, the TreadMarks homeless lazy-release-consistency
// protocol the paper's system is built on, so existing configurations
// are unchanged.
type ProtocolKind uint8

const (
	// Tmk is homeless lazy release consistency in the TreadMarks
	// style: writers keep their diffs, readers fetch them writer by
	// writer at fault time, and a garbage-collection pass periodically
	// consolidates the accumulated diffs at per-page owners. This is
	// the default and reproduces the paper's system bit for bit.
	Tmk ProtocolKind = iota
	// HLRC is home-based lazy release consistency: every page has a
	// home host (assigned round-robin by page, re-homed round-robin at
	// adaptation points when its home leaves), writers push their
	// diffs to the home eagerly when an interval closes, faults pull
	// the whole page from the home, and garbage collection is trivial
	// because no diff ever outlives its interval close. It is the
	// home-based protocol (home.go) with its adaptive mechanisms off.
	HLRC
	// Hybrid is the home-based protocol (home.go) with its adaptive
	// mechanisms on: a per-page classifier (classify.go) migrates homes
	// to dominant writers, switches diff-vs-whole-page transfer on
	// measured diff density, and elides twin/diff work for proven
	// single-writer pages.
	Hybrid
)

// String names the protocol the way the tools' -protocol flag spells
// it.
func (k ProtocolKind) String() string {
	switch k {
	case Tmk:
		return "tmk"
	case HLRC:
		return "hlrc"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("protocol(%d)", int(k))
}

// ParseProtocol parses a -protocol flag value.
func ParseProtocol(s string) (ProtocolKind, error) {
	switch s {
	case "", "tmk":
		return Tmk, nil
	case "hlrc":
		return HLRC, nil
	case "hybrid":
		return Hybrid, nil
	}
	return Tmk, fmt.Errorf("dsm: unknown protocol %q (want tmk, hlrc or hybrid)", s)
}

// Protocol is the coherence machinery of a cluster: everything that
// decides how a page becomes readable, what happens when an interval
// closes, and how consistency state is reclaimed. The surrounding
// Cluster owns the parts that are protocol-independent — region
// bookkeeping, the interval sequence, the release log, barrier arrival
// and write-notice traffic, locks, and the adaptation entry points —
// and dispatches the protocol-specific steps through this interface.
//
// The interface is deliberately implementation-gated (unexported
// methods): the two implementations live in this package — the
// homeless tmkProtocol (tmk.go) and the home-based homeProtocol
// (home.go), which serves both HLRC and Hybrid — and share the
// Cluster's internals. The contract each must honour:
//
//   - fault makes h's copy of the page readable and current as of the
//     page's latest committed interval, charging the requester.
//   - closePage commits interval s for one page at a barrier; on
//     return no listed writer holds a twin and every active host's
//     copy is either invalid or current (writers' sub-word races must
//     panic via Cluster.checkWordRaces).
//   - flushIntervalLocked commits h's open interval on a release path
//     (lock release, task handoff) under the directory write lock,
//     appending affected pages to the release log.
//   - upgradeOrInvalidate performs acquire-side consistency for one
//     page: a stale clean copy goes invalid, a stale dirty copy is
//     brought current in place without losing the host's own writes.
//   - runGCLocked reclaims consistency state; afterwards every page's
//     directory owner holds a valid current copy and every other copy
//     is either valid-and-current or absent (the invariant the
//     adaptation data movement relies on).
//   - storageLocked reports the reclaimable consistency storage in
//     bytes; the barrier triggers runGCLocked when it passes the
//     configured threshold.
//   - initRegion materialises a freshly allocated region's pages and
//     sets their directory owners.
//   - leaveStrategy maps the configured normal-leave handoff onto what
//     the protocol supports (HLRC always re-homes round-robin).
type Protocol interface {
	// Kind identifies the protocol.
	Kind() ProtocolKind

	fault(h *Host, pk pageKey, clk *simtime.Clock)
	closePage(pk pageKey, writers []HostID, s int32, active []HostID, flush []simtime.Seconds)
	flushIntervalLocked(h *Host, clk *simtime.Clock) int
	upgradeOrInvalidate(h *Host, pk pageKey, clk *simtime.Clock)
	runGCLocked(active []HostID) simtime.Seconds
	storageLocked() int
	initRegion(r *Region)
	leaveStrategy(s LeaveStrategy) LeaveStrategy
	// elideTwin lets the protocol skip twin creation for a first write:
	// the page stays dirty with a nil twin and the protocol commits it
	// without a diff. Tmk and HLRC never elide; Hybrid does for proven
	// single-writer pages.
	elideTwin(h *Host, pk pageKey) bool
}

// newProtocol builds the configured protocol for a cluster.
func newProtocol(k ProtocolKind, c *Cluster) (Protocol, error) {
	switch k {
	case Tmk:
		return &tmkProtocol{c: c}, nil
	case HLRC, Hybrid:
		return &homeProtocol{c: c, kind: k, adaptive: k == Hybrid}, nil
	}
	return nil, fmt.Errorf("dsm: unknown protocol kind %d", int(k))
}

// Protocol returns the cluster's coherence protocol kind.
func (c *Cluster) Protocol() ProtocolKind { return c.proto.Kind() }

// copyPageFrom is the whole-page transfer every protocol prices the
// same way: src's copy of the page is duplicated for h, the request
// and payload are recorded on the fabric, the requester-observed
// fetch cost is charged to clk, and the page-fetch counters advance.
// role names src's protocol role ("owner", "home") in the panic when
// it holds no copy. Returns the copied data and its appliedSeq.
func (c *Cluster) copyPageFrom(h, src *Host, pk pageKey, role string, clk *simtime.Clock) ([]byte, int32) {
	sst := &src.pages[pk.region][pk.page]
	if sst.data == nil {
		panic(fmt.Sprintf("dsm: %s %d of page %d/%d holds no copy", role, src.id, pk.region, pk.page))
	}
	data := c.pagePool.Copy(sst.data)
	applied := sst.appliedSeq

	c.fabric.Record(h.machine, src.machine, msgHeader)
	c.fabric.Record(src.machine, h.machine, page.Size+msgHeader)
	clk.Advance(c.costs.PageFetch(h.machine, src.machine, page.Size))
	c.stats.PageFetches++
	c.stats.PageBytes += page.Size
	return data, applied
}
