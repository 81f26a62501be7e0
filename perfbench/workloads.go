package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"nowomp/internal/scenario"
)

// Workload generation. Every input a run measures is a pure function
// of (workload, seed): the seed draws problem scales from a narrow band
// around each base scale, the cell order, protocol assignments, adapt
// schedules and the farm's job sequence. The program only ever sees the
// generated specs.

// workloadInfo names a workload and records why it exists.
type workloadInfo struct {
	name string
	why  string
}

var workloads = []workloadInfo{
	{"kernels", "the paper's four kernels under tmk, hlrc and hybrid: kernel arithmetic, span views, twins and barrier diffing dominate"},
	{"sync", "the bench.Protocols microkernel matrix: lock hand-offs, claim counters, small intervals and engine park/wake dominate"},
	{"adapt", "adaptive specs with seeded leave/join schedules and load policies: GC, page hand-off and re-homing at adaptation points"},
	{"farm", "closed-loop HTTP clients on an in-process farm with repeated specs: queue, store, single-flight, JSON and hashing"},
}

// protocols is the coherence-protocol axis every simulated workload
// spans.
var protocols = []string{"tmk", "hlrc", "hybrid"}

// scaleBand is the half-width of the seeded band around a base scale.
// It is narrow on purpose: the seed varies the inputs without moving
// the amount of work a run measures by more than its noise.
const scaleBand = 0.005

// jitter draws a scale from the band around base, rounded to five
// decimals so specs stay readable.
func jitter(rng *rand.Rand, base float64) float64 {
	s := base * (1 + scaleBand*(2*rng.Float64()-1))
	return math.Round(s*1e5) / 1e5
}

// ftoa formats a float in its shortest form.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// kernelBase is one kernel of the kernels workload at its base scale.
// Scales differ per kernel so each kernel's cells cost comparable host
// time; jacobi sits above 0.295, where hybrid falls behind Tmk. Base
// scales keep the band clear of the kernels' integer rounding points
// (nbf partners and iterations, fft3d iterations), so the seed cannot
// flip a kernel's size by a whole step.
type kernelBase struct {
	name  string
	scale float64
}

var kernelMix = []kernelBase{
	{"gauss", 0.2},
	{"jacobi", 0.31},
	{"fft3d", 0.305},
	{"nbf", 0.205},
}

// kernelSpecs generates the kernels workload: every kernel of kernelMix
// under every protocol, at 8 processes on a 10-host pool with no
// adaptation. A kernel's three protocol cells share one drawn scale so
// protocols compare on identical problems; the cell order is shuffled.
func kernelSpecs(seed int64) []scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	var specs []scenario.Spec
	for _, k := range kernelMix {
		s := jitter(rng, k.scale)
		for _, p := range protocols {
			specs = append(specs, scenario.Spec{Kernel: k.name, Scale: s, Procs: 8, Hosts: 10, Protocol: p})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// adaptBase is one kernel of the adapt workload. simT is the kernel's
// simulated runtime at its base scale under its fastest protocol, the
// clock the seeded schedules are laid out on so every event matures.
type adaptBase struct {
	name  string
	scale float64
	simT  float64
}

var adaptMix = []adaptBase{
	{"jacobi", 0.2, 2.4},
	{"nbf", 0.205, 2.9},
	{"gauss", 0.2, 2.3},
	{"mergesort", 0.3, 0.9},
}

// adaptSpecs generates the adapt workload: three adaptive specs per
// kernel at 8 processes on a 10-host pool. The seed permutes which
// protocol each spec runs (every protocol appears once per kernel, so
// the mix is the same for every seed), draws a leave/join schedule per
// spec, and adds a load trace with a load policy to one of the three.
func adaptSpecs(seed int64) []scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	var specs []scenario.Spec
	for _, k := range adaptMix {
		perm := rng.Perm(len(protocols))
		loaded := rng.Intn(len(protocols))
		for i, pi := range perm {
			s := scenario.Spec{
				Kernel: k.name, Scale: jitter(rng, k.scale), Procs: 8, Hosts: 10,
				Protocol: protocols[pi], Adaptive: true,
				Schedule: adaptSchedule(rng, k.simT),
			}
			if i == loaded {
				s.Loads, s.Policy = loadPolicy(rng, k.simT)
			}
			specs = append(specs, s)
		}
	}
	return specs
}

// at draws a virtual instant in [lo, hi) of the run length T, rounded
// to milliseconds.
func at(rng *rand.Rand, T, lo, hi float64) string {
	return ftoa(math.Round(T*(lo+(hi-lo)*rng.Float64())*1e3) / 1e3)
}

// adaptSchedule draws a leave of a team member (hosts 1-3), a join of a
// spare host (8 or 9) and the leaver's return, spread over the first
// two thirds of the run.
func adaptSchedule(rng *rand.Rand, T float64) string {
	leaver := 1 + rng.Intn(3)
	spare := 8 + rng.Intn(2)
	return fmt.Sprintf("%s:leave:%d,%s:join:%d,%s:join:%d",
		at(rng, T, 0.1, 0.2), leaver, at(rng, T, 0.3, 0.4), spare, at(rng, T, 0.5, 0.6), leaver)
}

// loadPolicy draws a load spike on one of hosts 5-7 (never a host the
// schedule touches) and a policy that makes it leave during the spike
// and rejoin after it.
func loadPolicy(rng *rand.Rand, T float64) (loads, policy string) {
	host := 5 + rng.Intn(3)
	loads = fmt.Sprintf("%d=2@%s,0@%s", host, at(rng, T, 0.15, 0.25), at(rng, T, 0.45, 0.55))
	policy = "high=1.5,low=0.25,dwell=" + ftoa(math.Round(T*0.02*1e3)/1e3)
	return loads, policy
}

// syncScaleLo and syncScaleHi bound the protocol matrix's scale. The
// matrix's loop kernel doubles its array past scale 1.0, so the band
// sits just below it.
const (
	syncScaleLo = 0.97
	syncScaleHi = 1.0
)

// syncPlan is the sync workload's input: the protocol matrix scale and
// the order of the lock-probe cells.
type syncPlan struct {
	scale  float64
	probes []probeSpec
}

// syncPlanFor generates the sync workload.
func syncPlanFor(seed int64) syncPlan {
	rng := rand.New(rand.NewSource(seed))
	scale := syncScaleLo + (syncScaleHi-syncScaleLo)*rng.Float64()
	var probes []probeSpec
	for _, k := range []string{"claim", "migratory"} {
		for _, p := range protocols {
			probes = append(probes, probeSpec{kernel: k, protocol: p})
		}
	}
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	return syncPlan{scale: math.Round(scale*1e5) / 1e5, probes: probes}
}

// Farm job sequence parameters: farmJobs jobs per pass over the
// distinct specs of farmTemplates, with Zipf-like repeats.
const (
	farmJobs  = 120
	farmScale = 0.052
	farmZipfS = 1.2
)

// farmTemplates is the farm's distinct-spec catalogue: every kernel
// under every protocol, plus heterogeneous, link-bent and adaptive
// shapes, all at 4 processes on a 6-host pool.
func farmTemplates() []scenario.Spec {
	var specs []scenario.Spec
	for _, k := range []string{"jacobi", "gauss", "fft3d", "nbf", "mergesort", "quadrature"} {
		for _, p := range protocols {
			specs = append(specs, scenario.Spec{Kernel: k, Procs: 4, Hosts: 6, Protocol: p})
		}
	}
	return append(specs,
		scenario.Spec{Kernel: "nbf", Procs: 4, Hosts: 6, Machines: "1=0.5,3=2", Loads: "2=1.5@0"},
		scenario.Spec{Kernel: "gauss", Procs: 4, Hosts: 6, Links: "0-3=lat:4,bw:0.25"},
		scenario.Spec{Kernel: "jacobi", Procs: 4, Hosts: 6, Adaptive: true, Schedule: "0.05:leave:3,0.12:join:3"},
	)
}

// farmPlan is the farm workload's input: the distinct specs and the job
// sequence as indices into them.
type farmPlan struct {
	specs []scenario.Spec
	jobs  []int
}

// farmPlanFor generates the farm workload. Each distinct spec gets a
// seeded scale and a seeded popularity rank. The sequence opens with
// every spec once in catalogue order — the cold phase, where the worker
// pool simulates — and goes on with Zipf-ranked repeats, the warm phase
// the cache serves. A fixed cold order keeps the pool's makespan, and a
// separate warm phase keeps hit latency, free of the seed: interleaved,
// both would depend on which simulations happen to share the cores.
func farmPlanFor(seed int64) farmPlan {
	rng := rand.New(rand.NewSource(seed))
	specs := farmTemplates()
	jobs := make([]int, len(specs))
	for i := range specs {
		specs[i].Scale = jitter(rng, farmScale)
		jobs[i] = i
	}
	rank := rng.Perm(len(specs))
	zipf := rand.NewZipf(rng, farmZipfS, 1, uint64(len(specs)-1))
	for len(jobs) < farmJobs {
		jobs = append(jobs, rank[zipf.Uint64()])
	}
	return farmPlan{specs: specs, jobs: jobs}
}
