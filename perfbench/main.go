// Command perfbench is nowomp's benchmark. It runs one seeded workload
// for a fixed time, checks every output, and prints every metric by
// name with its unit from two clocks: host wall time (the cost of
// running the simulator) and simulated seconds and bytes (the paper's
// own metrics, exact for a given seed).
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 20 --trace 0
//
// A run repeats passes over the workload's job set until its time is
// up. Each pass sets up (timed as setup_s), runs every job (timed as
// wall_s), then verifies outside the timing window. With --trace 1 the
// second half of the run is traced — CPU profile, fork-hook region
// spans and spans around every call into the program — and the run
// prints the per-layer metrics instead. The last line of standard
// output is the result JSON; see README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"nowomp/internal/page"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced half and prints the per-layer metrics")
	out := fs.String("out", ".bench_build/trace", "directory the traced run writes its spans and profile to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := newSetup(*name, *seed)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fs.Usage()
		return 2
	}
	m := &measurement{workload: *name, seed: *seed, setup: setup}
	if err := m.measure(time.Duration(*seconds)*time.Second, *traced == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var res result
	if *traced == 1 {
		res = m.result(perLayer, m.perLayer())
	} else {
		res = m.result(endToEnd, m.endToEnd())
	}
	for _, e := range m.errs {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupFunc makes one pass of a workload ready.
type setupFunc func(e *env) (pass, error)

// newSetup returns the setup of the named workload for a seed. The
// reference cache and the farm's result record live as long as the run,
// so every pass is checked against the same values.
func newSetup(name string, seed int64) (setupFunc, bool) {
	refs := &refCache{}
	switch name {
	case "kernels":
		return func(e *env) (pass, error) { return setupCells(e, kernelSpecs(seed), refs) }, true
	case "adapt":
		return func(e *env) (pass, error) { return setupCells(e, adaptSpecs(seed), refs) }, true
	case "sync":
		return func(e *env) (pass, error) { return setupSync(e, seed) }, true
	case "farm":
		seen := map[string][]byte{}
		return func(e *env) (pass, error) { return setupFarm(e, seed, refs, seen) }, true
	}
	return nil, false
}

// Pass-count floors: two untraced passes so every run checks that the
// exact metrics repeat, and enough set-ups for a steady setup_s median.
const (
	minPasses = 2
	minSetups = 101
)

// passSet accumulates the passes of one kind (untraced or traced).
type passSet struct {
	env       env
	walls     []float64
	latencies []float64
	jobs      []float64 // jobs per pass
	// perPass holds one value per pass of each pass gauge and Go
	// runtime delta.
	perPass map[string][]float64
}

// push appends v to the samples named name, making the map on first
// use.
func push(into *map[string][]float64, name string, v float64) {
	if *into == nil {
		*into = map[string][]float64{}
	}
	(*into)[name] = append((*into)[name], v)
}

// measurement is one run of one workload.
type measurement struct {
	workload string
	seed     int64
	setup    setupFunc

	setupS            []float64
	untraced, traced  passSet
	base              []tally // per-job exact metrics of the first pass
	exact             tally   // their sum
	attempted, failed int
	errs              []string
	hostS             map[string]float64
}

// measure runs passes until the time is up.
func (m *measurement) measure(d time.Duration, traced bool, outDir string) error {
	for len(m.setupS) < minSetups-minPasses {
		t0 := time.Now()
		p, err := m.setup(&m.untraced.env)
		if err != nil {
			return err
		}
		m.setupS = append(m.setupS, time.Since(t0).Seconds())
		p.close()
	}
	start := time.Now()
	budget := d
	if traced {
		budget = d / 2
	}
	var last time.Duration
	for n := 0; n < minPasses || time.Since(start)+last <= budget; n++ {
		t0 := time.Now()
		if err := m.pass(&m.untraced, false); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	if !traced {
		return nil
	}

	tr := newTracer()
	m.traced.env.tr = tr
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	spansPath, profPath := traceFiles(outDir, m.workload, m.seed)
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	for n := 0; n < 1 || time.Since(start)+last <= d; n++ {
		t0 := time.Now()
		if err := m.pass(&m.traced, true); err != nil {
			pprof.StopCPUProfile()
			return err
		}
		last = time.Since(t0)
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	prof, err := os.ReadFile(profPath)
	if err != nil {
		return err
	}
	if m.hostS, err = profileHostSeconds(prof); err != nil {
		return err
	}
	return tr.write(spansPath, m.hostS)
}

// pass runs one pass: timed setup, timed run, then verification and
// the exact-metric check outside the window.
func (m *measurement) pass(s *passSet, traced bool) error {
	e := &s.env
	e.root = e.tr.begin("pass", m.workload, -1)
	defer e.tr.end(e.root)

	t0 := time.Now()
	p, err := m.setup(e)
	if err != nil {
		return err
	}
	m.setupS = append(m.setupS, time.Since(t0).Seconds())

	// Start every pass from a collected heap, so one pass's garbage is
	// not charged to the next.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	p.run(e)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	out := p.finish(e)
	p.close()

	s.walls = append(s.walls, wall)
	s.latencies = append(s.latencies, out.latencies...)
	s.jobs = append(s.jobs, float64(len(out.jobs)))
	for k, v := range out.gauges {
		push(&s.perPass, k, v)
	}
	push(&s.perPass, "go.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	push(&s.perPass, "go.mallocs", float64(after.Mallocs-before.Mallocs))
	push(&s.perPass, "go.gc_cycles", float64(after.NumGC-before.NumGC))

	first := m.base == nil
	for i, j := range out.jobs {
		m.attempted++
		switch {
		case j.err != nil:
			m.fail(j.err.Error())
		case first:
		case i >= len(m.base) || !maps.Equal(j.exact, m.base[i]):
			m.fail(fmt.Sprintf("job %d: exact metrics differ from the first pass (traced=%v)", i, traced))
		}
	}
	if first {
		m.exact = tally{}
		for _, j := range out.jobs {
			m.base = append(m.base, j.exact)
			m.exact.add(j.exact)
		}
	}
	return nil
}

func (m *measurement) fail(msg string) {
	m.failed++
	if len(m.errs) < 10 {
		m.errs = append(m.errs, msg)
	}
}

// endToEnd computes the untraced metrics.
func (m *measurement) endToEnd() map[string]float64 {
	u := &m.untraced
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	perS := make([]float64, len(u.walls))
	for i := range u.walls {
		perS[i] = ratio(u.jobs[i], u.walls[i])
	}
	return map[string]float64{
		"setup_s":         median(m.setupS),
		"wall_s":          median(u.walls),
		"sim_s":           m.exact["sim_s"],
		"fabric_bytes":    m.exact["fabric_bytes"],
		"fabric_messages": m.exact["fabric_messages"],
		"peak_rss_mb":     float64(ru.Maxrss) / 1024, // Maxrss is in KiB
		"ok_frac":         1 - ratio(float64(m.failed), float64(m.attempted)),
		"jobs_per_s":      median(perS),
		"job_p50_s":       quantile(u.latencies, 0.5),
		"job_p90_s":       quantile(u.latencies, 0.9),
	}
}

// perLayer computes the traced run's metrics: exact counts of one pass,
// medians of the untraced passes' gauges, region spans and profile
// seconds per traced pass.
func (m *measurement) perLayer() map[string]float64 {
	u, t := &m.untraced, &m.traced
	out := map[string]float64{}
	for k, v := range m.exact {
		if !slices.Contains([]string{"sim_s", "fabric_bytes", "fabric_messages"}, k) {
			out[k] = v
		}
	}
	for k, v := range u.perPass {
		out[k] = median(v)
	}
	wall := median(u.walls)
	out["apps.overhead_x"] = ratio(wall, out["apps.reference_s"])
	out["scenario.normalize_us"] = median(u.env.samples["scenario.normalize_us"])
	out["farm.queue_s_p50"] = median(u.env.samples["farm.queue_s"])
	out["farm.sim_s_p50"] = median(u.env.samples["farm.sim_s"])
	out["farm.overhead_ms_p50"] = median(u.env.samples["farm.overhead_ms"])
	out["page.twin_mb"] = m.exact["dsm.twins"] * page.Size / 1e6
	regions := t.env.tr.regionDurations()
	out["omp.region_host_us_p50"] = quantile(regions, 0.5) * 1e6
	out["omp.region_host_us_p90"] = quantile(regions, 0.9) * 1e6
	for _, l := range hostLayers {
		out["host."+l+"_s"] = m.hostS[l] / float64(len(t.walls))
	}
	out["trace.overhead"] = ratio(median(t.walls), wall)
	out["failed_frac"] = ratio(float64(m.failed), float64(m.attempted))
	return out
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the catalogue's metrics from vals (absent ones are 0)
// and logs them to stderr.
func (m *measurement) result(defs []metricDef, vals map[string]float64) result {
	r := result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d untraced and %d traced passes, %d/%d jobs failed\n",
		m.workload, m.seed, len(m.untraced.walls), len(m.traced.walls), m.failed, m.attempted)
	fmt.Fprintf(os.Stderr, "  pass wall_s: untraced %.4g, traced %.4g\n", m.untraced.walls, m.traced.walls)
	for _, d := range defs {
		v := vals[d.name]
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-26s %16.6g %s\n", d.name, v, d.unit)
	}
	return r
}
