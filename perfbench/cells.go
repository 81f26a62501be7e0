package main

import (
	"fmt"
	"sync"
	"time"

	"nowomp/internal/apps"
	"nowomp/internal/dsm"
	"nowomp/internal/omp"
	"nowomp/internal/scenario"
)

// tally holds the exact metrics of one job or pass by name: simulated
// seconds, fabric traffic and DSM/adapt counts. For a given seed every
// value repeats bit for bit, so two tallies of the same job must be
// equal.
type tally map[string]float64

// add sums o into t. Sums run in job order, so a pass's tally is as
// exact as its jobs'.
func (t tally) add(o tally) {
	for k, v := range o {
		t[k] += v
	}
}

// job is the outcome of one unit of work the benchmark submitted: a
// scenario cell, a protocol-matrix row, a probe cell or a farm job.
type job struct {
	exact tally
	err   error
}

// passOut is what one pass reports once its timing window has closed.
type passOut struct {
	jobs []job
	// latencies are per-job host seconds, as the caller saw them.
	latencies []float64
	// gauges are per-pass values that are not exact (hit ratios,
	// reference time).
	gauges map[string]float64
}

// pass is one execution of a workload's job set. A setupFunc makes it
// ready, run is the timed window, finish collects and verifies the
// outputs outside the window, and close releases what setup took.
type pass interface {
	run(e *env)
	finish(e *env) passOut
	close()
}

// env is what a pass sees of its run: the tracer (nil on untraced
// passes), the span of the current pass, and collectors for per-call
// samples.
type env struct {
	tr   *tracer
	root int

	mu      sync.Mutex
	samples map[string][]float64
}

func (e *env) sample(name string, v float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	push(&e.samples, name, v)
}

// protect runs f behind a panic barrier, like scenario.RunChecked: a
// panic in the simulation fails the job instead of the benchmark.
func protect(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return f()
}

// refCache computes each sequential reference once per run, timed: the
// reference is the kernel arithmetic alone, the floor the simulator's
// host time is compared against.
type refCache struct {
	mu   sync.Mutex
	vals map[string]refVal
}

type refVal struct {
	sum     float64
	seconds float64
}

func (c *refCache) get(e *env, r apps.Runner, scale float64, hash string) refVal {
	key := fmt.Sprintf("%s@%g", r.Name, scale)
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.vals[key]; ok {
		return v
	}
	if c.vals == nil {
		c.vals = map[string]refVal{}
	}
	sp := e.tr.begin("apps.Runner.Reference", hash, e.root)
	t0 := time.Now()
	v := refVal{sum: r.Reference(scale)}
	v.seconds = time.Since(t0).Seconds()
	e.tr.end(sp)
	c.vals[key] = v
	return v
}

// cell is one scenario of the kernels or adapt workload, built and
// ready to run.
type cell struct {
	spec    scenario.Spec // normalized
	hash    string
	runner  apps.Runner
	rt      *omp.Runtime
	res     apps.Result
	exact   tally
	err     error
	latency float64
}

// buildCell normalizes, hashes and builds one spec, recording the
// Normalize+Hash cost per call.
func buildCell(e *env, s scenario.Spec) (*cell, error) {
	t0 := time.Now()
	sp := e.tr.begin("scenario.Normalize", "", e.root)
	norm, err := s.Normalize()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = e.tr.begin("scenario.Hash", "", e.root)
	hash, err := norm.Hash()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	e.sample("scenario.normalize_us", time.Since(t0).Seconds()*1e6)
	e.tr.describe(hash, norm)
	sp = e.tr.begin("scenario.Build", hash, e.root)
	rt, _, err := norm.Build()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	runner, err := norm.Runner()
	if err != nil {
		return nil, err
	}
	return &cell{spec: norm, hash: hash, runner: runner, rt: rt}, nil
}

// run executes the cell; afterwards the cell holds its result and
// exact metrics but no runtime.
func (c *cell) run(e *env) {
	c.exact, c.latency, c.err = runOn(e, "apps.Runner.Run", c.hash, c.spec.Protocol, c.rt,
		func() (float64, int64, int64, error) {
			res, err := c.runner.Run(c.rt, c.spec.Scale)
			c.res = res
			return float64(res.Time), res.Bytes, res.Messages, err
		})
	c.rt = nil
}

// runOn runs one job on rt under a span named name: behind the panic
// barrier, with the region hook installed on a traced pass. f returns
// the job's simulated seconds, fabric bytes and messages. runOn returns
// the host latency and, when the job succeeded, its exact metrics.
// Callers drop rt afterwards, so a pass holds one simulated memory
// image at a time.
func runOn(e *env, name, id, protocol string, rt *omp.Runtime, f func() (simS float64, bytes, msgs int64, err error)) (tally, float64, error) {
	sp := e.tr.begin(name, id, e.root)
	defer e.tr.end(sp)
	finish := func(*omp.Runtime) {}
	if e.tr != nil {
		var hook func(*omp.Runtime)
		hook, finish = regionHook(e.tr, sp, id)
		rt.SetForkHook(hook)
	}
	var simS float64
	var bytes, msgs int64
	t0 := time.Now()
	err := protect(func() (err error) {
		simS, bytes, msgs, err = f()
		return err
	})
	latency := time.Since(t0).Seconds()
	if err != nil {
		return nil, latency, err
	}
	finish(rt)
	t := cellTally(rt, protocol, simS, bytes, msgs)
	e.tr.annotate(sp, simS, bytes, int64(t["dsm.read_faults"]+t["dsm.write_faults"]))
	return t, latency, nil
}

// cellTally reads a finished cell's exact metrics from the public
// counters: dsm.Cluster.Stats, simnet.Fabric and omp.Runtime.AdaptLog.
func cellTally(rt *omp.Runtime, protocol string, simS float64, bytes, msgs int64) tally {
	st := rt.Cluster().Stats().Snapshot()
	_, _, maxLink := rt.Cluster().Fabric().Snapshot().MaxLink()
	t := tally{
		"sim_s":                             simS,
		"fabric_bytes":                      float64(bytes),
		"fabric_messages":                   float64(msgs),
		"dsm." + protocol + ".sim_s":        simS,
		"dsm." + protocol + ".fabric_bytes": float64(bytes),
		"omp.forks":                         float64(rt.Forks()),
		"simnet.max_link_bytes":             float64(maxLink),
	}
	t.add(statsTally(st))
	for _, ap := range rt.AdaptLog() {
		t["adapt.events"] += float64(len(ap.Applied))
		t["adapt.cost_sim_s"] += float64(ap.Elapsed)
		t["adapt.window_bytes"] += float64(ap.WindowBytes)
		for _, rec := range ap.Applied {
			t["adapt.pages_moved"] += float64(rec.Transfer.PagesMoved)
		}
	}
	return t
}

// statsTally names the DSM counters the benchmark reports.
func statsTally(st dsm.StatsSnapshot) tally {
	return tally{
		"dsm.read_faults":      float64(st.ReadFaults),
		"dsm.write_faults":     float64(st.WriteFaults),
		"dsm.twins":            float64(st.TwinsCreated),
		"dsm.diffs_created":    float64(st.DiffsCreated),
		"dsm.diff_fetches":     float64(st.DiffFetches),
		"dsm.diff_bytes":       float64(st.DiffBytes),
		"dsm.page_fetches":     float64(st.PageFetches),
		"dsm.page_bytes":       float64(st.PageBytes),
		"dsm.home_flushes":     float64(st.HomeFlushes),
		"dsm.home_flush_bytes": float64(st.HomeFlushBytes),
		"dsm.lock_acquires":    float64(st.LockAcquires),
		"dsm.barriers":         float64(st.Barriers),
		"dsm.gcs":              float64(st.GCs),
		"dsm.home_migrations":  float64(st.HomeMigrations),
		"dsm.elided_twins":     float64(st.ElidedTwins),
	}
}

// cellPass is one pass of a scenario workload (kernels, adapt).
type cellPass struct {
	cells []*cell
	refs  *refCache
}

// setupCells builds every generated spec into a ready runtime.
func setupCells(e *env, specs []scenario.Spec, refs *refCache) (pass, error) {
	p := &cellPass{refs: refs}
	for _, s := range specs {
		c, err := buildCell(e, s)
		if err != nil {
			return nil, fmt.Errorf("setup %s/%s: %w", s.Kernel, s.Protocol, err)
		}
		p.cells = append(p.cells, c)
	}
	return p, nil
}

func (p *cellPass) run(e *env) {
	for _, c := range p.cells {
		c.run(e)
	}
}

// finish verifies every cell against its sequential reference and
// reads its exact metrics.
func (p *cellPass) finish(e *env) passOut {
	out := passOut{gauges: map[string]float64{}}
	for _, c := range p.cells {
		out.latencies = append(out.latencies, c.latency)
		j := job{err: c.err}
		if c.err == nil {
			ref := p.refs.get(e, c.runner, c.spec.Scale, c.hash)
			out.gauges["apps.reference_s"] += ref.seconds
			if c.res.Checksum != ref.sum {
				j.err = fmt.Errorf("checksum %v, reference %v", c.res.Checksum, ref.sum)
			}
			j.exact = c.exact
		}
		if j.err != nil {
			j.err = fmt.Errorf("%s/%s@%g: %w", c.spec.Kernel, c.spec.Protocol, c.spec.Scale, j.err)
		}
		out.jobs = append(out.jobs, j)
	}
	return out
}

func (p *cellPass) close() { p.cells = nil }
