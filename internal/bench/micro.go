package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"nowomp/internal/adapt"
	"nowomp/internal/omp"
	"nowomp/internal/simtime"
)

// The micro-analysis of section 5.4 consists of four claims, each
// reproduced by one experiment here, plus the bottleneck observation
// that ties them together:
//
//	M2: the cost of adaptation is proportional to the maximum network
//	    traffic per link generated by the adapt event
//	M3: smaller problem sizes give proportionally smaller costs
//	M4: the cost decreases as the number of processes increases
//	M5: simultaneous adapt events are cheaper than successive ones
//	M6: repeated adaptations get cheaper (only accessed pages move)

// SizePoint is one point of the size sweep (M3).
type SizePoint struct {
	Scale    float64
	SharedMB float64
	Cost     simtime.Seconds
}

// ProcPoint is one point of the process-count sweep (M4).
type ProcPoint struct {
	Procs int
	Cost  simtime.Seconds
	// MaxLinkBytes is the adaptation's busiest-link traffic (M2).
	MaxLinkBytes int64
}

// SimulResult compares two leaves at one adaptation point against the
// same two leaves at successive points (M5).
type SimulResult struct {
	TogetherCost   simtime.Seconds
	SuccessiveCost simtime.Seconds
	TogetherGCs    int
	SuccessiveGCs  int
}

// RepeatPoint is one leave of the repeated leave/rejoin cycle (M6).
type RepeatPoint struct {
	Leave      int
	PagesMoved int
}

// MicroResult aggregates the section 5.4 experiments.
type MicroResult struct {
	SizeSweep    []SizePoint
	ProcSweep    []ProcPoint
	Simultaneous SimulResult
	Repeated     []RepeatPoint
	// LinkCorr is the Pearson correlation between adaptation cost and
	// max-per-link traffic across all single-leave experiments (M2).
	LinkCorr float64
}

// forkLeaver fires leave events at chosen fork indices; several slots
// at one index model simultaneous adapt events.
type forkLeaver struct {
	fires map[int64][]int
}

func (f *forkLeaver) hook(rt *omp.Runtime) {
	slots := f.fires[rt.Forks()]
	if len(slots) == 0 {
		return
	}
	team := rt.Team()
	for _, s := range slots {
		if s <= 0 || s >= len(team) {
			continue
		}
		_ = rt.Submit(adapt.Event{Kind: adapt.KindLeave, Host: team[s], At: rt.Now()})
	}
}

// singleLeaveCost measures the cost of one leave (end slot) from procs
// processes of Jacobi at the given scale, with the paper's baseline
// methodology. It also returns the adaptation window's own cost and
// max-link traffic, the pair whose proportionality section 5.4 claims.
func singleLeaveCost(opt Options, scale float64, procs int) (cost simtime.Seconds, windowCost simtime.Seconds, maxLink int64, sharedMB float64, err error) {
	base := map[int]simtime.Seconds{}
	for _, n := range []int{procs, procs - 1} {
		res, _, err := runAppOpt(opt, "jacobi", scale, omp.Config{Hosts: opt.Hosts, Procs: n}, nil)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		base[n] = res.Time
	}
	fl := &forkLeaver{fires: map[int64][]int{8: {procs - 1}}}
	res, rt, err := runAppOpt(opt, "jacobi", scale, omp.Config{
		Hosts: opt.Hosts, Procs: procs, Adaptive: true, Grace: opt.Grace,
	}, fl.hook)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	log := rt.AdaptLog()
	if len(log) != 1 {
		return 0, 0, 0, 0, fmt.Errorf("bench: single leave produced %d adaptations", len(log))
	}
	nbar := avgTeamSize(rt, procs, res.Time)
	ref := interpolateRef(nbar, procs-1, procs, base[procs-1], base[procs])
	sharedMB = float64(rt.Cluster().TotalSharedBytes()) / 1e6
	return res.Time - ref, log[0].Elapsed, log[0].WindowMaxLink, sharedMB, nil
}

// Micro runs the section 5.4 experiments.
func Micro(opt Options) (MicroResult, error) {
	opt = opt.withDefaults()
	var out MicroResult

	// M3: size sweep at 8 processes.
	var linkX, linkY []float64
	for _, mult := range []float64{1, 1.5, 2} {
		scale := opt.Scale * mult
		cost, windowCost, maxLink, shared, err := singleLeaveCost(opt, scale, 8)
		if err != nil {
			return out, err
		}
		out.SizeSweep = append(out.SizeSweep, SizePoint{Scale: scale, SharedMB: shared, Cost: cost})
		linkX = append(linkX, float64(maxLink))
		linkY = append(linkY, float64(windowCost))
	}

	// M4: process-count sweep at fixed size.
	for _, procs := range []int{4, 6, 8} {
		cost, windowCost, maxLink, _, err := singleLeaveCost(opt, opt.Scale*1.5, procs)
		if err != nil {
			return out, err
		}
		out.ProcSweep = append(out.ProcSweep, ProcPoint{Procs: procs, Cost: cost, MaxLinkBytes: maxLink})
		linkX = append(linkX, float64(maxLink))
		linkY = append(linkY, float64(windowCost))
	}
	out.LinkCorr = pearson(linkX, linkY)

	// M5: two leaves together vs at successive adaptation points.
	simul, err := simultaneousVsSuccessive(opt)
	if err != nil {
		return out, err
	}
	out.Simultaneous = simul

	// M6: repeated leave/rejoin of the same host (NBF: the read-only
	// partner lists transfer only on the first leave).
	rep, err := repeatedLeaves(opt)
	if err != nil {
		return out, err
	}
	out.Repeated = rep
	return out, nil
}

func simultaneousVsSuccessive(opt Options) (SimulResult, error) {
	scale := opt.Scale * 1.5
	base := map[int]simtime.Seconds{}
	for _, n := range []int{6, 7, 8} {
		res, _, err := runAppOpt(opt, "jacobi", scale, omp.Config{Hosts: opt.Hosts, Procs: n}, nil)
		if err != nil {
			return SimulResult{}, err
		}
		base[n] = res.Time
	}
	run := func(fires map[int64][]int) (simtime.Seconds, int, error) {
		fl := &forkLeaver{fires: fires}
		res, rt, err := runAppOpt(opt, "jacobi", scale, omp.Config{
			Hosts: opt.Hosts, Procs: 8, Adaptive: true, Grace: opt.Grace,
		}, fl.hook)
		if err != nil {
			return 0, 0, err
		}
		if got := appliedEvents(rt); got != 2 {
			return 0, 0, fmt.Errorf("bench: expected 2 leaves, got %d", got)
		}
		nbar := avgTeamSize(rt, 8, res.Time)
		ref := refPiecewise(nbar, base)
		return res.Time - ref, int(rt.Cluster().Stats().GCs), nil
	}
	together, gcT, err := run(map[int64][]int{8: {7, 6}})
	if err != nil {
		return SimulResult{}, err
	}
	successive, gcS, err := run(map[int64][]int{8: {7}, 9: {6}})
	if err != nil {
		return SimulResult{}, err
	}
	return SimulResult{
		TogetherCost: together, SuccessiveCost: successive,
		TogetherGCs: gcT, SuccessiveGCs: gcS,
	}, nil
}

func repeatedLeaves(opt Options) ([]RepeatPoint, error) {
	scale := opt.Scale
	if floor := table2Scales["nbf"]; scale < floor {
		scale = floor
	}
	base, _, err := runAppOpt(opt, "nbf", scale, omp.Config{Hosts: opt.Hosts, Procs: 8}, nil)
	if err != nil {
		return nil, err
	}
	alt := newAlternator([]simtime.Seconds{base.Time * 0.3, base.Time * 0.7}, EndSlot)
	_, rt, err := runAppOpt(opt, "nbf", scale, omp.Config{
		Hosts: opt.Hosts, Procs: 8, Adaptive: true, Grace: opt.Grace,
	}, alt.hook)
	if err != nil {
		return nil, err
	}
	var points []RepeatPoint
	for _, ap := range rt.AdaptLog() {
		for _, rec := range ap.Applied {
			if rec.Event.Kind == adapt.KindLeave {
				points = append(points, RepeatPoint{Leave: len(points) + 1, PagesMoved: rec.Transfer.PagesMoved})
			}
		}
	}
	if len(points) < 2 {
		return nil, fmt.Errorf("bench: repeated-leave run fired %d leaves, want 2", len(points))
	}
	return points, nil
}

// refPiecewise interpolates the baseline runtime piecewise-linearly
// over the measured integer node counts.
func refPiecewise(nbar float64, base map[int]simtime.Seconds) simtime.Seconds {
	var ns []int
	for n := range base {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for i := 0; i+1 < len(ns); i++ {
		if nbar <= float64(ns[i+1]) || i+1 == len(ns)-1 {
			return interpolateRef(nbar, ns[i], ns[i+1], base[ns[i]], base[ns[i+1]])
		}
	}
	return base[ns[0]]
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// FormatMicro renders the section 5.4 results.
func FormatMicro(m MicroResult) string {
	var b strings.Builder
	b.WriteString("Section 5.4 micro-analysis of adaptation costs (Jacobi unless noted)\n\n")

	b.WriteString("M3: cost vs problem size (single leave, 8 processes)\n")
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "scale\tshared MB\tcost")
	for _, p := range m.SizeSweep {
		fmt.Fprintf(w, "%.2f\t%.1f\t%.3fs\n", p.Scale, p.SharedMB, float64(p.Cost))
	}
	w.Flush()

	b.WriteString("\nM4: cost vs process count (single leave, fixed size)\n")
	w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "procs\tcost\tmax-link bytes")
	for _, p := range m.ProcSweep {
		fmt.Fprintf(w, "%d\t%.3fs\t%d\n", p.Procs, float64(p.Cost), p.MaxLinkBytes)
	}
	w.Flush()

	fmt.Fprintf(&b, "\nM2: correlation(cost, max per-link traffic) = %.3f\n", m.LinkCorr)

	fmt.Fprintf(&b, "\nM5: two leaves together %.3fs vs successive %.3fs (GCs %d vs %d)\n",
		float64(m.Simultaneous.TogetherCost), float64(m.Simultaneous.SuccessiveCost),
		m.Simultaneous.TogetherGCs, m.Simultaneous.SuccessiveGCs)

	b.WriteString("\nM6: repeated leave/rejoin of one host (NBF)\n")
	w = tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "leave\tpages moved")
	for _, p := range m.Repeated {
		fmt.Fprintf(w, "%d\t%d\n", p.Leave, p.PagesMoved)
	}
	w.Flush()
	return b.String()
}
