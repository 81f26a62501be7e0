package dsm

import (
	"fmt"

	"nowomp/internal/page"
	"nowomp/internal/simnet"
	"nowomp/internal/simtime"
)

// pageKey names one shared page.
type pageKey struct {
	region RegionID
	page   int
}

// seqDiff is a diff produced when the interval with the given sequence
// number closed. Diffs are immutable once created and may be shared by
// reference between hosts.
type seqDiff struct {
	seq  int32
	diff *page.Diff
}

// pageState is one host's view of one shared page.
type pageState struct {
	data  []byte // nil when the host holds no copy
	valid bool
	twin  []byte // pristine copy while dirty in the open interval
	dirty bool
	// appliedSeq is the newest interval sequence whose committed
	// modifications are reflected in data (plus the host's own
	// uncommitted writes while dirty).
	appliedSeq int32
}

// Host is one logical process address space participating in the DSM.
// Hosts map 1:1 onto machines except while a migrated process shares
// its target's machine after an urgent leave.
//
// Host state is engine-serialised: within one cluster exactly one
// process runs at a time (see internal/engine), and every cross-host
// operation — fetches, interval closes, migrations — executes on the
// running process's goroutine. Distinct clusters never share hosts,
// so the struct needs no locking; the race-detector CI job guards the
// assumption.
type Host struct {
	id      HostID
	cluster *Cluster
	machine simnet.MachineID
	active  bool

	pages [][]pageState // [region][page]
	// written lists the pages dirtied in the open interval, in first-
	// write order; interval close consumes it.
	written []pageKey
	// diffs holds the diffs this host created, keyed by page, ascending
	// in seq (Tmk protocol only: HLRC pushes diffs to the page's home
	// at interval close and retains nothing). Readers fetch from here;
	// GC clears it.
	diffs     map[pageKey][]seqDiff
	diffBytes int
	// syncSeq is the newest interval sequence this host has fully
	// honoured (set at barriers and lock acquires).
	syncSeq int32
}

func newHost(c *Cluster, id HostID, m simnet.MachineID) *Host {
	return &Host{id: id, cluster: c, machine: m, diffs: make(map[pageKey][]seqDiff)}
}

// ID returns the host id.
func (h *Host) ID() HostID { return h.id }

// Machine returns the machine this host currently runs on.
func (h *Host) Machine() simnet.MachineID { return h.machine }

// Active reports whether the host participates in the computation.
func (h *Host) Active() bool { return h.active }

func (h *Host) addRegion(npages int) {
	h.pages = append(h.pages, make([]pageState, npages))
}

// newPage and releasePage recycle page buffers through the cluster's
// single-owner freelist; all callers run serialised by the engine.
func (c *Cluster) newPage() []byte      { return c.pagePool.Zeroed() }
func (c *Cluster) releasePage(b []byte) { c.pagePool.Release(b) }

func pageCount(bytes int) int { return page.Count(bytes) }

// MsgHeader is the protocol message header size charged for requests
// and responses, exported so the layers above (fork broadcasts, task
// steal/completion messages) price their messages with the same
// constant as the DSM itself.
const MsgHeader = 32

// message header size charged for protocol requests and responses.
const msgHeader = MsgHeader

// ResidentBytes returns the bytes of shared pages this host currently
// holds a copy of: the dominant component of its migration image.
func (h *Host) ResidentBytes() int {
	n := 0
	for _, reg := range h.pages {
		for i := range reg {
			if reg[i].data != nil {
				n += page.Size
			}
		}
	}
	return n
}

// ReadSpan makes the page at off readable and returns the longest
// in-page byte span starting at off, clamped to n bytes: the
// zero-copy read path behind the shmem accessors, which decode
// elements straight out of page memory instead of staging through an
// intermediate buffer. The span aliases the host's page store and is
// valid only until the next operation on the host; callers must not
// retain it. n must be positive and off+n in range.
func (h *Host) ReadSpan(r RegionID, off, n int, clk *simtime.Clock) []byte {
	h.checkRange(r, off, n)
	p := off / page.Size
	po := off - p*page.Size
	if chunk := page.Size - po; chunk < n {
		n = chunk
	}
	st := &h.pages[r][p]
	if !st.valid {
		h.ensureRead(r, p, clk)
	}
	return st.data[po : po+n]
}

// WriteSpan makes the page at off writable (faulted in and twinned)
// and returns the longest in-page byte span starting at off, clamped
// to n bytes, for the caller to overwrite in place: the zero-copy
// write path behind the shmem accessors. The span holds the page's
// current contents (ensureWrite faults it in first), so a partial
// overwrite is safe. Same aliasing rules as ReadSpan.
func (h *Host) WriteSpan(r RegionID, off, n int, clk *simtime.Clock) []byte {
	h.checkRange(r, off, n)
	p := off / page.Size
	po := off - p*page.Size
	if chunk := page.Size - po; chunk < n {
		n = chunk
	}
	st := &h.pages[r][p]
	if !st.dirty || !st.valid {
		h.ensureWrite(r, p, clk)
	}
	return st.data[po : po+n]
}

// PageView is a fault-aware view of one region's page table on one
// host, the cheap repeated-random-access path behind the typed shmem
// readers: it hoists the region lookup and bounds checks out of a
// kernel's inner loop and leaves a per-access cost of one validity
// test. The page-state slice it indexes is allocated once per region
// and never reallocated, so a view stays usable for the region's
// lifetime; the usual aliasing rule applies to the returned page bytes.
type PageView struct {
	h   *Host
	r   RegionID
	st  []pageState
	clk *simtime.Clock
}

// PageView returns a fault-aware page-table view of region r for this
// host, charging fault costs to clk.
func (h *Host) PageView(r RegionID, clk *simtime.Clock) PageView {
	if int(r) < 0 || int(r) >= len(h.pages) {
		panic(fmt.Sprintf("dsm: host %d: unknown region %d", h.id, r))
	}
	return PageView{h: h, r: r, st: h.pages[r], clk: clk}
}

// ReadPage returns page p's bytes for reading, faulting it in if the
// local copy is missing or invalid. The valid-page path is small
// enough to inline into callers' loops; the fault path is outlined.
func (v *PageView) ReadPage(p int) []byte {
	st := &v.st[p]
	if st.valid {
		return st.data
	}
	return v.readPageSlow(p)
}

//go:noinline
func (v *PageView) readPageSlow(p int) []byte {
	v.h.ensureRead(v.r, p, v.clk)
	return v.st[p].data
}

// Read copies len(dst) bytes starting at off in region r into dst,
// faulting pages in as needed and charging fault costs to clk.
func (h *Host) Read(r RegionID, off int, dst []byte, clk *simtime.Clock) {
	h.checkRange(r, off, len(dst))
	// Fast path: a one-page access to an already-valid page, the
	// common case for element-granularity kernel loops.
	p := off / page.Size
	if po := off - p*page.Size; len(dst) != 0 && po+len(dst) <= page.Size {
		if st := &h.pages[r][p]; st.valid {
			copy(dst, st.data[po:po+len(dst)])
			return
		}
	}
	for n := 0; n < len(dst); {
		p := (off + n) / page.Size
		po := (off + n) % page.Size
		chunk := page.Size - po
		if rem := len(dst) - n; chunk > rem {
			chunk = rem
		}
		h.ensureRead(r, p, clk)
		copy(dst[n:n+chunk], h.pages[r][p].data[po:po+chunk])
		n += chunk
	}
}

// Write copies src into region r at off, faulting and twinning pages as
// needed and charging fault costs to clk.
func (h *Host) Write(r RegionID, off int, src []byte, clk *simtime.Clock) {
	h.checkRange(r, off, len(src))
	// Fast path: a one-page write to a page already twinned in this
	// interval.
	p := off / page.Size
	if po := off - p*page.Size; len(src) != 0 && po+len(src) <= page.Size {
		if st := &h.pages[r][p]; st.dirty && st.valid {
			copy(st.data[po:po+len(src)], src)
			return
		}
	}
	for n := 0; n < len(src); {
		p := (off + n) / page.Size
		po := (off + n) % page.Size
		chunk := page.Size - po
		if rem := len(src) - n; chunk > rem {
			chunk = rem
		}
		h.ensureWrite(r, p, clk)
		copy(h.pages[r][p].data[po:po+chunk], src[n:n+chunk])
		n += chunk
	}
}

func (h *Host) checkRange(r RegionID, off, n int) {
	if int(r) < 0 || int(r) >= len(h.cluster.regions) {
		panic(fmt.Sprintf("dsm: host %d: unknown region %d", h.id, r))
	}
	if off < 0 || n < 0 || off+n > h.cluster.regions[r].Bytes {
		panic(fmt.Sprintf("dsm: host %d: access [%d,%d) outside region %q of %d bytes",
			h.id, off, off+n, h.cluster.regions[r].Name, h.cluster.regions[r].Bytes))
	}
}

// ensureRead makes the page readable on h, invoking the protocol's
// read-fault handling if the local copy is missing or invalid.
func (h *Host) ensureRead(r RegionID, p int, clk *simtime.Clock) {
	valid := h.pages[r][p].valid
	if valid {
		return
	}
	h.cluster.stats.ReadFaults++
	h.cluster.proto.fault(h, pageKey{r, p}, clk)
}

// ensureWrite makes the page writable on h: readable first (TreadMarks
// fetches on a write fault too), then twinned if this is the first
// write of the open interval. Twinning is protocol-independent: Tmk
// keeps the twin to diff lazily, HLRC to diff eagerly at the flush.
func (h *Host) ensureWrite(r RegionID, p int, clk *simtime.Clock) {
	h.ensureRead(r, p, clk)
	st := &h.pages[r][p]
	if !st.dirty {
		if h.cluster.proto.elideTwin(h, pageKey{r, p}) {
			// Single-writer elision (hybrid only): the page goes dirty
			// with no twin — the protocol commits it without a diff —
			// and the twin-copy cost vanishes.
			st.dirty = true
			h.written = append(h.written, pageKey{r, p})
			h.cluster.stats.WriteFaults++
			return
		}
		st.twin = h.cluster.pagePool.Copy(st.data)
		st.dirty = true
		h.written = append(h.written, pageKey{r, p})
		clk.Advance(h.cluster.costs.Twin(h.machine))
		h.cluster.stats.TwinsCreated++
		h.cluster.stats.WriteFaults++
	}
}

func (h *Host) localDiffs(pk pageKey) []seqDiff {
	return h.diffs[pk]
}

// takeWritten consumes and returns the open interval's dirty-page list.
// Called by interval-close code with the directory write lock held and
// the host's process parked.
func (h *Host) takeWritten() []pageKey {
	w := h.written
	h.written = nil
	return w
}

// Valid reports whether the host currently holds a valid copy of the
// page (test and measurement helper).
func (h *Host) Valid(r RegionID, p int) bool {
	return h.pages[r][p].valid
}

// HasCopy reports whether the host holds any copy, valid or stale.
func (h *Host) HasCopy(r RegionID, p int) bool {
	return h.pages[r][p].data != nil
}
