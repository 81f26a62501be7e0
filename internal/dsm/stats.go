package dsm

// Stats counts DSM protocol events. All counters are cumulative for the
// lifetime of the cluster; use Snapshot and Sub to measure windows
// (for example, the cost attributable to one adaptation). Byte and
// message totals live on the network fabric; these counters track
// protocol objects, matching the columns of Table 1.
//
// Counters are plain int64 and increments are plain stores: the engine
// runs exactly one process of a cluster at a time and every process
// switch is a channel handoff (a happens-before edge), so counters are
// never touched concurrently. Fault-path increments sit right after
// 4 KB twin/fetch copies, where an atomic's store-buffer drain costs
// more than the bookkeeping itself at full scale.
type Stats struct {
	PageFetches  int64 // full 4 KB page transfers
	PageBytes    int64 // payload bytes of page transfers
	DiffFetches  int64 // diff objects fetched (Table 1 "Diffs")
	DiffBytes    int64 // payload bytes of diff transfers
	DiffsCreated int64 // diffs made at interval close
	TwinsCreated int64 // twins made at first write
	// HomeFlushes/HomeFlushBytes count diffs pushed to page homes at
	// interval close, the home-based analogue of diff fetches (always
	// zero under Tmk).
	HomeFlushes    int64
	HomeFlushBytes int64
	Barriers       int64
	LockAcquires   int64
	GCs            int64
	ReadFaults     int64 // page-granularity access misses
	WriteFaults    int64 // first writes (twin events)
	// Hybrid-protocol classification census: how many pages the
	// classifier currently tags with each sharing pattern (a page moves
	// between buckets as its access history evolves; unknown pages are
	// in no bucket). Always zero under Tmk and HLRC.
	PagesSingleWriter     int64
	PagesProducerConsumer int64
	PagesMigratory        int64
	PagesFalselyShared    int64
	// HomeMigrations counts hybrid home moves: free flips at a
	// sole-writer close plus priced dominant-writer migrations, whose
	// transferred bytes accumulate in HomeMigrationBytes.
	HomeMigrations     int64
	HomeMigrationBytes int64
	// ElidedTwins/ElidedDiffs count the twin copies and diff objects the
	// hybrid protocol skipped for proven single-writer pages.
	ElidedTwins int64
	ElidedDiffs int64
}

// StatsSnapshot is a copy of the counters taken by Snapshot.
type StatsSnapshot = Stats

// Snapshot captures the current counter values.
func (s *Stats) Snapshot() StatsSnapshot { return *s }

// Sub returns the difference between this snapshot and an earlier one.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		PageFetches:    s.PageFetches - earlier.PageFetches,
		PageBytes:      s.PageBytes - earlier.PageBytes,
		DiffFetches:    s.DiffFetches - earlier.DiffFetches,
		DiffBytes:      s.DiffBytes - earlier.DiffBytes,
		DiffsCreated:   s.DiffsCreated - earlier.DiffsCreated,
		TwinsCreated:   s.TwinsCreated - earlier.TwinsCreated,
		HomeFlushes:    s.HomeFlushes - earlier.HomeFlushes,
		HomeFlushBytes: s.HomeFlushBytes - earlier.HomeFlushBytes,
		Barriers:       s.Barriers - earlier.Barriers,
		LockAcquires:   s.LockAcquires - earlier.LockAcquires,
		GCs:            s.GCs - earlier.GCs,
		ReadFaults:     s.ReadFaults - earlier.ReadFaults,
		WriteFaults:    s.WriteFaults - earlier.WriteFaults,

		PagesSingleWriter:     s.PagesSingleWriter - earlier.PagesSingleWriter,
		PagesProducerConsumer: s.PagesProducerConsumer - earlier.PagesProducerConsumer,
		PagesMigratory:        s.PagesMigratory - earlier.PagesMigratory,
		PagesFalselyShared:    s.PagesFalselyShared - earlier.PagesFalselyShared,
		HomeMigrations:        s.HomeMigrations - earlier.HomeMigrations,
		HomeMigrationBytes:    s.HomeMigrationBytes - earlier.HomeMigrationBytes,
		ElidedTwins:           s.ElidedTwins - earlier.ElidedTwins,
		ElidedDiffs:           s.ElidedDiffs - earlier.ElidedDiffs,
	}
}

// Stats returns the cluster-wide counters.
func (c *Cluster) Stats() *Stats { return &c.stats }
