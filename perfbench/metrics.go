package main

import (
	"math"
	"slices"
)

// metricDef is one reported metric. BENCHMARK.json lists the same
// catalogue; TestCatalogueMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, printed by
// untraced runs. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_s", "s", "lower"},
	{"fabric_bytes", "B", "lower"},
	{"fabric_messages", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_s", "s", "lower"},
	{"job_p90_s", "s", "lower"},
}

// perLayer are the metrics of single layers, printed by traced runs.
// Counts are per pass and exact; a layer a workload does not reach
// reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.normalize_us", "us", "lower"},
		{"apps.reference_s", "s", "lower"},
		{"apps.overhead_x", "x", "lower"},
		{"omp.forks", "count", "lower"},
		{"omp.region_host_us_p50", "us", "lower"},
		{"omp.region_host_us_p90", "us", "lower"},
	}
	for _, n := range []string{
		"read_faults", "write_faults", "twins", "diffs_created", "diff_fetches",
		"diff_bytes", "page_fetches", "page_bytes", "home_flushes", "home_flush_bytes",
		"lock_acquires", "barriers", "gcs", "home_migrations", "elided_twins",
	} {
		unit := "count"
		if n == "diff_bytes" || n == "page_bytes" || n == "home_flush_bytes" {
			unit = "B"
		}
		defs = append(defs, metricDef{"dsm." + n, unit, "lower"})
	}
	for _, p := range protocols {
		defs = append(defs,
			metricDef{"dsm." + p + ".sim_s", "s", "lower"},
			metricDef{"dsm." + p + ".fabric_bytes", "B", "lower"})
	}
	defs = append(defs,
		metricDef{"page.twin_mb", "MB", "lower"},
		metricDef{"simnet.max_link_bytes", "B", "lower"},
		metricDef{"adapt.events", "count", "higher"},
		metricDef{"adapt.cost_sim_s", "s", "lower"},
		metricDef{"adapt.window_bytes", "B", "lower"},
		metricDef{"adapt.pages_moved", "count", "lower"},
		metricDef{"farm.hit_ratio", "ratio", "higher"},
		metricDef{"farm.dedups", "count", "higher"},
		metricDef{"farm.queue_s_p50", "s", "lower"},
		metricDef{"farm.sim_s_p50", "s", "lower"},
		metricDef{"farm.overhead_ms_p50", "ms", "lower"},
	)
	for _, l := range hostLayers {
		defs = append(defs, metricDef{"host." + l + "_s", "s", "lower"})
	}
	return append(defs,
		metricDef{"go.alloc_mb", "MB", "lower"},
		metricDef{"go.mallocs", "count", "lower"},
		metricDef{"go.gc_cycles", "count", "lower"},
		metricDef{"trace.overhead", "ratio", "lower"},
		metricDef{"failed_frac", "ratio", "lower"},
	)
}()

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
