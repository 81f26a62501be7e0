package dsm

// Per-page sharing-pattern classification for the hybrid protocol.
//
// The classifier watches the events the protocol already sees — read
// faults, first writes, and interval closes — and tags each page with
// the sharing regime the history evidences. The hybrid protocol then
// specializes its mechanics per class: homes migrate to dominant
// writers, diff-vs-whole-page transfer switches on measured diff
// density, and twin/diff work is elided for pages proven single-writer.
// Classification state is heuristic only: it steers *where* data moves
// and *how* it is encoded, never *what* values a reader observes, so a
// misclassification costs traffic, not correctness.

// pageClass is the classifier's tag for one page's sharing pattern.
type pageClass uint8

const (
	// classUnknown: no interval has closed on the page yet.
	classUnknown pageClass = iota
	// classSingleWriter: exactly one host has ever written the page and
	// no other host has ever read it — a private page in shared space.
	classSingleWriter
	// classProducerConsumer: exactly one host has ever written the page
	// and at least one other host reads it.
	classProducerConsumer
	// classMigratory: several hosts write the page, but never in the
	// same interval — lock-passed records whose writer identity rotates.
	classMigratory
	// classFalselyShared: at least one interval closed with two or more
	// concurrent writers — disjoint data cohabiting one page.
	classFalselyShared
)

func (pc pageClass) String() string {
	switch pc {
	case classSingleWriter:
		return "single-writer"
	case classProducerConsumer:
		return "producer-consumer"
	case classMigratory:
		return "migratory"
	case classFalselyShared:
		return "falsely-shared"
	}
	return "unknown"
}

// classRec is the classifier's per-page history. All fields are updated
// under the engine's serialisation (fault paths) or the directory write
// lock (interval closes), so no synchronisation is needed beyond what
// the protocol already holds.
type classRec struct {
	class pageClass

	// writerA is the first writer observed (-1 none); manyWriters is set
	// once a second distinct writer appears.
	writerA     HostID
	manyWriters bool

	// readerA/readerB record the first two distinct hosts whose read
	// faults the home served (-1 none). Together with writerA they
	// answer the only question classification asks of the read history:
	// does a reader other than the sole writer exist?
	readerA, readerB HostID

	// Close-shape history: closes with one writer vs several concurrent
	// writers, and how often consecutive sole closes changed writer.
	soleCloses   int
	multiCloses  int
	alternations int
	lastSole     HostID

	// streak counts consecutive sole closes by the same writer; the
	// free home-flip rule consults it.
	streak int

	// domWriter/domRun track the writer present in every one of the
	// last domRun closes — the dominance evidence the priced migration
	// rule requires before moving a falsely-shared page's home.
	domWriter HostID
	domRun    int
}

func newClassRecs(n int) []classRec {
	recs := make([]classRec, n)
	for i := range recs {
		recs[i] = classRec{writerA: -1, readerA: -1, readerB: -1, lastSole: -1, domWriter: -1}
	}
	return recs
}

// hasRemoteReader reports whether any recorded reader differs from the
// page's sole writer.
func (cr *classRec) hasRemoteReader() bool {
	return (cr.readerA >= 0 && cr.readerA != cr.writerA) ||
		(cr.readerB >= 0 && cr.readerB != cr.writerA)
}

// observeRead records that the home served a read fault by h.
func (cr *classRec) observeRead(h HostID) {
	switch {
	case cr.readerA < 0:
		cr.readerA = h
	case cr.readerA != h && cr.readerB < 0:
		cr.readerB = h
	}
}

// observeWrite records a first-write (twin) event by h.
func (cr *classRec) observeWrite(h HostID) {
	if cr.writerA < 0 {
		cr.writerA = h
	} else if cr.writerA != h {
		cr.manyWriters = true
	}
}

// observeClose records one interval close with the given concurrent
// writers (ascending host order for multi-writer closes).
func (cr *classRec) observeClose(writers []HostID) {
	for _, w := range writers {
		cr.observeWrite(w)
	}
	if len(writers) == 1 {
		w := writers[0]
		cr.soleCloses++
		if cr.lastSole >= 0 && cr.lastSole != w {
			cr.alternations++
		}
		if cr.lastSole == w {
			cr.streak++
		} else {
			cr.streak = 1
		}
		cr.lastSole = w
	} else {
		cr.multiCloses++
		cr.streak = 0
		cr.lastSole = -1
	}
	// Dominance: extend the run if the previous dominant writer wrote
	// again this close, otherwise restart it at the lowest writer id
	// (a deterministic choice independent of close gather order).
	dom := cr.domWriter
	extend := false
	low := writers[0]
	for _, w := range writers {
		if w == dom {
			extend = true
		}
		if w < low {
			low = w
		}
	}
	if extend {
		cr.domRun++
	} else {
		cr.domWriter = low
		cr.domRun = 1
	}
}

// classify derives the class the current history evidences.
func (cr *classRec) classify() pageClass {
	switch {
	case cr.soleCloses == 0 && cr.multiCloses == 0:
		return classUnknown
	case cr.multiCloses > 0:
		return classFalselyShared
	case cr.manyWriters:
		return classMigratory
	case cr.hasRemoteReader():
		return classProducerConsumer
	default:
		return classSingleWriter
	}
}

// censusCounter returns the Stats census counter for a class, or nil
// for classUnknown (unclassified pages are not counted).
func censusCounter(s *Stats, pc pageClass) *int64 {
	switch pc {
	case classSingleWriter:
		return &s.PagesSingleWriter
	case classProducerConsumer:
		return &s.PagesProducerConsumer
	case classMigratory:
		return &s.PagesMigratory
	case classFalselyShared:
		return &s.PagesFalselyShared
	}
	return nil
}

// setClass moves the page to the class its history now evidences,
// keeping the per-class census counters balanced.
func (cr *classRec) setClass(s *Stats, pc pageClass) {
	if pc == cr.class {
		return
	}
	if c := censusCounter(s, cr.class); c != nil {
		*c--
	}
	if c := censusCounter(s, pc); c != nil {
		*c++
	}
	cr.class = pc
}

// reset returns the record to the unclassified state (adaptation
// epochs: after a team resize the old history describes a partition
// layout that no longer exists).
func (cr *classRec) reset(s *Stats) {
	cr.setClass(s, classUnknown)
	*cr = classRec{writerA: -1, readerA: -1, readerB: -1, lastSole: -1, domWriter: -1}
}
