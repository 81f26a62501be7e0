package main

import (
	"fmt"
	"sync"
	"time"

	"nowomp/internal/bench"
	"nowomp/internal/dsm"
	"nowomp/internal/omp"
	"nowomp/internal/simtime"
)

// The sync workload calls bench.Protocols, the only entry point to the
// protocol microkernels. Its rows carry simulated time, traffic and the
// diff/flush/coherence counters, but not the lock, twin or fault
// counts, and its runtimes take no fork hook. So the workload also runs
// lock-probe cells that the benchmark builds itself on the omp API: the
// two lock-bearing patterns of the matrix (a claim-scheduled loop and a
// migratory lock record), whose dsm.Stats and fork regions are
// observable.

// probeSpec names one probe cell.
type probeSpec struct {
	kernel   string // "claim" or "migratory"
	protocol string
}

// Probe parameters mirror the matrix's homog shape: 4 processes on 10
// hosts; the claim loop is the matrix loop at scale 1.0 with a
// Dynamic schedule, the record is most of one page.
const (
	probeProcs      = 4
	probeHosts      = 10
	claimN          = 1 << 14
	claimIters      = 20
	claimChunk      = claimN / 64
	migratoryWords  = 448
	migratoryRounds = 8
	migratoryLock   = 41
)

// probeCell is one built probe.
type probeCell struct {
	probeSpec
	rt      *omp.Runtime
	exact   tally
	err     error
	latency float64
}

func buildProbe(s probeSpec) (*probeCell, error) {
	proto, err := dsm.ParseProtocol(s.protocol)
	if err != nil {
		return nil, err
	}
	rt, err := omp.New(omp.Config{Hosts: probeHosts, Procs: probeProcs, Protocol: proto})
	if err != nil {
		return nil, err
	}
	return &probeCell{probeSpec: s, rt: rt}, nil
}

// run executes the probe, which checks its own closed-form result.
func (c *probeCell) run(e *env) {
	id := "probe/" + c.kernel + "/" + c.protocol
	c.exact, c.latency, c.err = runOn(e, "probe.Run", id, c.protocol, c.rt,
		func() (float64, int64, int64, error) {
			run := runMigratory
			if c.kernel == "claim" {
				run = runClaim
			}
			err := run(c.rt)
			net := c.rt.Cluster().Fabric().Snapshot()
			return float64(c.rt.Now()), net.TotalBytes(), net.TotalMessages(), err
		})
	if c.err != nil {
		c.err = fmt.Errorf("%s: %w", id, c.err)
	}
	c.rt = nil
}

// runClaim writes ones over a shared array under a Dynamic schedule,
// whose chunk claims bounce a lock-guarded counter between processes.
func runClaim(rt *omp.Runtime) error {
	out, err := omp.Alloc[float64](rt, "probe.out", claimN)
	if err != nil {
		return err
	}
	for it := 0; it < claimIters; it++ {
		rt.For("probe.claim", 0, claimN, func(p *omp.Proc, lo, hi int) {
			buf := make([]float64, hi-lo)
			for i := range buf {
				buf[i] = float64(it + 1)
			}
			out.WriteRange(p.Mem(), lo, buf)
			p.ChargeUnits(hi-lo, simtime.Micros(40))
		}, omp.WithSchedule(omp.Dynamic, claimChunk))
	}
	buf := make([]float64, claimN)
	out.ReadRange(rt.MasterProc().Mem(), 0, claimN, buf)
	for i, v := range buf {
		if v != claimIters {
			return fmt.Errorf("item %d = %g, want %d", i, v, claimIters)
		}
	}
	return nil
}

// runMigratory has every process increment a one-page record under a
// lock, round after round: the migratory-sharing pattern.
func runMigratory(rt *omp.Runtime) error {
	rec, err := omp.Alloc[float64](rt, "probe.rec", 512)
	if err != nil {
		return err
	}
	rt.Parallel("probe.migratory", func(p *omp.Proc) {
		buf := make([]float64, migratoryWords)
		for r := 0; r < migratoryRounds; r++ {
			p.Lock(migratoryLock)
			rec.ReadRange(p.Mem(), 0, migratoryWords, buf)
			for i := range buf {
				buf[i]++
			}
			rec.WriteRange(p.Mem(), 0, buf)
			p.ChargeUnits(migratoryWords, simtime.Micros(1))
			p.Unlock(migratoryLock)
		}
	})
	buf := make([]float64, migratoryWords)
	rec.ReadRange(rt.MasterProc().Mem(), 0, migratoryWords, buf)
	for i, v := range buf {
		if v != probeProcs*migratoryRounds {
			return fmt.Errorf("word %d = %g, want %d", i, v, probeProcs*migratoryRounds)
		}
	}
	return nil
}

// tickWriter timestamps the per-cell progress lines bench.Protocols
// writes, which is how the matrix's cells are timed one by one.
type tickWriter struct {
	mu    sync.Mutex
	ticks []time.Time
}

func (w *tickWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	w.ticks = append(w.ticks, time.Now())
	w.mu.Unlock()
	return len(b), nil
}

// syncPass is one pass of the sync workload.
type syncPass struct {
	scale  float64
	probes []*probeCell
	rows   []bench.ProtoRow
	err    error
	start  time.Time
	ticks  tickWriter
}

func setupSync(e *env, seed int64) (pass, error) {
	plan := syncPlanFor(seed)
	p := &syncPass{scale: plan.scale}
	for _, s := range plan.probes {
		sp := e.tr.begin("omp.New", "probe/"+s.kernel+"/"+s.protocol, e.root)
		c, err := buildProbe(s)
		e.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("setup probe %s/%s: %w", s.kernel, s.protocol, err)
		}
		p.probes = append(p.probes, c)
	}
	return p, nil
}

func (p *syncPass) run(e *env) {
	sp := e.tr.begin("bench.Protocols", fmt.Sprintf("protocols@%g", p.scale), e.root)
	p.start = time.Now()
	p.err = protect(func() (err error) {
		p.rows, err = bench.Protocols(bench.Options{Scale: p.scale, Progress: &p.ticks})
		return err
	})
	e.tr.end(sp)
	for _, c := range p.probes {
		c.run(e)
	}
}

// finish turns every matrix row and probe cell into a job. The matrix
// ticks once per cell after its baseline row, so the first latency
// covers the baseline and the first cell.
func (p *syncPass) finish(e *env) passOut {
	out := passOut{}
	prev := p.start
	for _, t := range p.ticks.ticks {
		out.latencies = append(out.latencies, t.Sub(prev).Seconds())
		prev = t
	}
	if p.err != nil {
		// A failed matrix fails every cell it would have run.
		for range len(p.ticks.ticks) + 1 {
			out.jobs = append(out.jobs, job{err: fmt.Errorf("bench.Protocols: %w", p.err)})
		}
	}
	for _, r := range p.rows {
		t := tally{
			"sim_s":                               float64(r.Time),
			"fabric_bytes":                        float64(r.Bytes),
			"fabric_messages":                     float64(r.Messages),
			"dsm." + r.Protocol + ".sim_s":        float64(r.Time),
			"dsm." + r.Protocol + ".fabric_bytes": float64(r.Bytes),
			"dsm.diff_fetches":                    float64(r.Diffs),
			"dsm.home_flushes":                    float64(r.Flushes),
			"dsm.home_migrations":                 float64(r.Coherence.HomeMigrations),
			"dsm.elided_twins":                    float64(r.Coherence.ElidedTwins),
		}
		j := job{exact: t}
		if !r.Verified {
			j.err = fmt.Errorf("protocols %s/%s/%s/%s: not verified", r.Kernel, r.Scenario, r.Schedule, r.Protocol)
		}
		out.jobs = append(out.jobs, j)
	}
	for _, c := range p.probes {
		out.latencies = append(out.latencies, c.latency)
		out.jobs = append(out.jobs, job{exact: c.exact, err: c.err})
	}
	return out
}

func (p *syncPass) close() { p.probes, p.rows = nil, nil }
