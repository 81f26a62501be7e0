package bench

import (
	"fmt"
	"os"
	"testing"

	"nowomp/internal/adapt"
	"nowomp/internal/apps"
	"nowomp/internal/dsm"
	"nowomp/internal/machine"
	"nowomp/internal/omp"
	"nowomp/internal/simnet"
)

// goldenCell is one measured (kernel, variant) cell of the Tmk
// bit-exactness matrix: virtual runtime plus total fabric bytes and
// messages.
type goldenCell struct {
	Name     string
	Time     float64
	Bytes    int64
	Messages int64
	Checksum float64
}

// tmkGolden is the full kernel matrix measured on the pre-refactor
// system (commit 837e983, before the coherence machinery moved behind
// the Protocol interface), captured with TestCaptureGolden. The
// engine-based runtime must reproduce every cell bit for bit — the
// refactor's core contract: identical simulated times and identical
// fabric byte/message counts across all four loop kernels and both
// task kernels, plain, with an adapt schedule, and with heterogeneous
// machine/link costs.
//
// One cell, fft3d/hetero, is pinned to the pre-engine system's
// GOMAXPROCS>=4 value rather than the one PR 4 committed: the
// pre-engine runtime produced 701952 fabric bytes at GOMAXPROCS<=2 and
// 697712 at GOMAXPROCS>=4 (and flaked between the two at 2) because a
// Tmk read fault fetches its base copy from the page owner with
// whatever diffs the owner happened to have applied in real time —
// mid-phase fault interleaving leaked into the byte counts whenever
// links were heterogeneous. The discrete-event engine fixes the fault
// order (lowest virtual time, host-id ties), which lands on the
// multi-core value; every other cell is the PR 4 capture verbatim.
var tmkGolden = []goldenCell{
	{Name: "gauss/base", Time: 4.2990982271985363, Bytes: 6213312, Messages: 6534, Checksum: 265116.67143948283},
	{Name: "gauss/adapt", Time: 5.0199088643769096, Bytes: 7131800, Messages: 7019, Checksum: 265116.67143948283},
	{Name: "gauss/hetero", Time: 9.1374241254228394, Bytes: 7203224, Messages: 7034, Checksum: 265116.67143948283},
	{Name: "jacobi/base", Time: 0.47662685714531527, Bytes: 1763504, Messages: 1999, Checksum: 450862.44785374403},
	{Name: "jacobi/adapt", Time: 0.63418817304843855, Bytes: 1922920, Messages: 1761, Checksum: 450862.44785374403},
	{Name: "jacobi/hetero", Time: 0.97610357561562566, Bytes: 1920648, Messages: 1741, Checksum: 450862.44785374403},
	{Name: "fft3d/base", Time: 0.10780723999999979, Bytes: 862032, Messages: 639, Checksum: 2607.0611865067449},
	{Name: "fft3d/adapt", Time: 0.13097978312499989, Bytes: 727056, Messages: 538, Checksum: 2607.0611865067449},
	{Name: "fft3d/hetero", Time: 0.22079788742187531, Bytes: 697712, Messages: 520, Checksum: 2607.0611865067449},
	{Name: "nbf/base", Time: 0.55833904800000012, Bytes: 2317488, Messages: 1251, Checksum: 18635.568711964494},
	{Name: "nbf/adapt", Time: 0.77134135200000031, Bytes: 2408512, Messages: 1262, Checksum: 18635.568711964494},
	{Name: "nbf/hetero", Time: 2.2849237609876605, Bytes: 5452320, Messages: 1335, Checksum: 18635.568711964494},
	{Name: "mergesort/base", Time: 0.49651372832031498, Bytes: 1871468, Messages: 871, Checksum: 1676056.8523008034},
	{Name: "mergesort/adapt", Time: 0.37558877781250261, Bytes: 1539904, Messages: 781, Checksum: 1676056.8523008034},
	{Name: "mergesort/hetero", Time: 0.53453829781250262, Bytes: 1539904, Messages: 781, Checksum: 1676056.8523008034},
	{Name: "quadrature/base", Time: 0.10511447999999235, Bytes: 89968, Messages: 96, Checksum: 153.07934230313165},
	{Name: "quadrature/adapt", Time: 0.10710367999999235, Bytes: 90208, Messages: 102, Checksum: 153.07934230313165},
	{Name: "quadrature/hetero", Time: 0.13318463999998983, Bytes: 90368, Messages: 105, Checksum: 153.07934230313165},
}

// goldenScale keeps the full matrix under a few seconds of real time
// while still crossing page boundaries, multiple barriers and several
// adaptation points in every kernel.
const goldenScale = 0.08

// goldenMatrix runs the full kernel matrix — the four loop kernels and
// the two task kernels, each plain, with an adapt schedule (leave +
// rejoin derived from the kernel's own baseline time), and with
// heterogeneous machine/link costs — under the given protocol and
// returns the measurements in a fixed order. Every cell uses
// deterministic schedules only (static loops, the deterministic task
// scheduler), so the numbers are exact run to run.
func goldenMatrix(t *testing.T, proto dsm.ProtocolKind) []goldenCell {
	t.Helper()
	var cells []goldenCell

	names := []string{"gauss", "jacobi", "fft3d", "nbf", "mergesort", "quadrature"}
	for _, name := range names {
		runner, ok := apps.RunnerByName(name)
		if !ok {
			t.Fatalf("unknown kernel %q", name)
		}

		// Baseline: fixed team, homogeneous pool.
		base := goldenRunEvents(t, runner, omp.Config{Hosts: 6, Procs: 4, Protocol: proto}, nil)
		cells = append(cells, goldenCell{Name: name + "/base", Time: float64(base.Time),
			Bytes: base.Bytes, Messages: base.Messages, Checksum: base.Checksum})

		// Adaptive: a leave at 0.2T with a short grace and a rejoin
		// submitted at 0.5T, T the kernel's own baseline time, so the
		// schedule matures at any scale.
		T := base.Time
		adaptive := omp.Config{Hosts: 6, Procs: 4, Adaptive: true, Grace: T * 0.1, Protocol: proto}
		ad := goldenRunEvents(t, runner, adaptive, []adapt.Event{
			{Kind: adapt.KindLeave, Host: 2, At: T * 0.2},
			{Kind: adapt.KindJoin, Host: 2, At: T * 0.5},
		})
		cells = append(cells, goldenCell{Name: name + "/adapt", Time: float64(ad.Time),
			Bytes: ad.Bytes, Messages: ad.Messages, Checksum: ad.Checksum})

		// Heterogeneous costs: a half-speed machine, a loaded machine
		// and a bent master<->3 link, with the same adapt schedule on
		// top.
		mm := machine.New(6)
		mm.SetSpeed(2, 0.5)
		tr, err := machine.NewTrace(machine.Step{At: 0, Load: 1})
		if err != nil {
			t.Fatal(err)
		}
		mm.SetLoad(1, tr)
		hetero := omp.Config{Hosts: 6, Procs: 4, Adaptive: true, Grace: T * 0.1,
			Machine:  mm,
			Protocol: proto,
			Links: func(f *simnet.Fabric) error {
				f.SetDuplexScale(0, 3, 4, 0.25)
				return nil
			},
		}
		ht := goldenRunEvents(t, runner, hetero, []adapt.Event{
			{Kind: adapt.KindLeave, Host: 2, At: T * 0.3},
			{Kind: adapt.KindJoin, Host: 2, At: T * 0.6},
		})
		cells = append(cells, goldenCell{Name: name + "/hetero", Time: float64(ht.Time),
			Bytes: ht.Bytes, Messages: ht.Messages, Checksum: ht.Checksum})
	}
	return cells
}

func goldenRunEvents(t *testing.T, runner apps.Runner, cfg omp.Config, events []adapt.Event) apps.Result {
	t.Helper()
	rt, err := omp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := rt.Submit(e); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runner.Run(rt, goldenScale)
	if err != nil {
		t.Fatal(err)
	}
	if want := runner.Reference(goldenScale); res.Checksum != want {
		t.Fatalf("%s: checksum %g, reference %g", res.App, res.Checksum, want)
	}
	return res
}

// TestTmkGoldenBitExact asserts the refactor's core contract: the
// extracted Tmk protocol — selected explicitly — reproduces the
// pre-refactor system bit for bit on the full kernel matrix, with
// adaptation, tasking and heterogeneous costs in play: identical
// simulated times, fabric bytes and message counts.
func TestTmkGoldenBitExact(t *testing.T) {
	got := goldenMatrix(t, dsm.Tmk)
	assertGolden(t, got)
}

// TestDefaultProtocolIsTmk asserts that a zero-value configuration
// still runs the Tmk protocol and prices identically: existing
// programs see no change from the protocol layer.
func TestDefaultProtocolIsTmk(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 2, Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Cluster().Protocol(); got != dsm.Tmk {
		t.Fatalf("default protocol = %v, want tmk", got)
	}
	// One golden cell end to end through the default (zero-value)
	// protocol field.
	runner, _ := apps.RunnerByName("jacobi")
	res := goldenRunEvents(t, runner, omp.Config{Hosts: 6, Procs: 4}, nil)
	want := tmkGolden[3] // jacobi/base
	if float64(res.Time) != want.Time || res.Bytes != want.Bytes || res.Messages != want.Messages {
		t.Fatalf("default-config jacobi = (%.17g s, %d B, %d msgs), golden (%.17g s, %d B, %d msgs)",
			float64(res.Time), res.Bytes, res.Messages, want.Time, want.Bytes, want.Messages)
	}
}

func assertGolden(t *testing.T, got []goldenCell) {
	t.Helper()
	if len(got) != len(tmkGolden) {
		t.Fatalf("matrix has %d cells, golden table %d", len(got), len(tmkGolden))
	}
	for i, g := range got {
		w := tmkGolden[i]
		if g.Name != w.Name {
			t.Fatalf("cell %d is %q, golden table has %q", i, g.Name, w.Name)
		}
		if g.Time != w.Time || g.Bytes != w.Bytes || g.Messages != w.Messages || g.Checksum != w.Checksum {
			t.Errorf("%s diverged from pre-refactor golden:\n  got  (%.17g s, %d B, %d msgs, sum %.17g)\n  want (%.17g s, %d B, %d msgs, sum %.17g)",
				g.Name, g.Time, g.Bytes, g.Messages, g.Checksum, w.Time, w.Bytes, w.Messages, w.Checksum)
		}
	}
}

// TestCaptureGolden regenerates a golden table in Go-literal form when
// NOWOMP_REGEN_GOLDEN is set; run it after an intentional cost change
// and paste the output over the matching table. NOWOMP_REGEN_GOLDEN=1
// captures the Tmk matrix (paste over tmkGolden);
// NOWOMP_REGEN_GOLDEN=hlrc captures the HLRC matrix (paste over
// hlrcGolden); NOWOMP_REGEN_GOLDEN=hybrid captures the hybrid matrix
// (paste over hybridGolden). It is skipped otherwise.
func TestCaptureGolden(t *testing.T) {
	proto := dsm.Tmk
	switch os.Getenv("NOWOMP_REGEN_GOLDEN") {
	case "":
		t.Skip("set NOWOMP_REGEN_GOLDEN=1 (tmk), =hlrc or =hybrid to regenerate a golden table")
	case "hlrc":
		proto = dsm.HLRC
	case "hybrid":
		proto = dsm.Hybrid
	}
	for _, c := range goldenMatrix(t, proto) {
		fmt.Printf("{Name: %q, Time: %.17g, Bytes: %d, Messages: %d, Checksum: %.17g},\n",
			c.Name, c.Time, c.Bytes, c.Messages, c.Checksum)
	}
}

// TestHLRCTeamSizes sweeps team sizes under HLRC: one regular and one
// task kernel must match their sequential references bit for bit at
// every size (goldenRunEvents fails on a checksum mismatch).
func TestHLRCTeamSizes(t *testing.T) {
	for _, name := range []string{"jacobi", "mergesort"} {
		runner, _ := apps.RunnerByName(name)
		for _, procs := range []int{1, 2, 3, 5} {
			goldenRunEvents(t, runner, omp.Config{Hosts: 6, Procs: procs, Protocol: dsm.HLRC}, nil)
		}
	}
}

// TestHybridTeamSizes is the hybrid analogue of TestHLRCTeamSizes:
// classification, home migration and single-writer elision must all be
// output-transparent at every team size, including the degenerate
// one-proc team where every page is trivially single-writer.
func TestHybridTeamSizes(t *testing.T) {
	for _, name := range []string{"jacobi", "mergesort"} {
		runner, _ := apps.RunnerByName(name)
		for _, procs := range []int{1, 2, 3, 5} {
			goldenRunEvents(t, runner, omp.Config{Hosts: 6, Procs: procs, Protocol: dsm.Hybrid}, nil)
		}
	}
}

// hlrcGolden pins HLRC's cost matrix, captured with TestCaptureGolden
// under NOWOMP_REGEN_GOLDEN=hlrc while HLRC still had a standalone
// implementation. HLRC is now the home-based protocol with its adaptive
// mechanisms off, and this table is the proof that the fold changed no
// cost: every cell reproduces the standalone protocol bit for bit. It
// stays a regression fence — home assignment, flush pricing and the
// fault path all move these numbers.
var hlrcGolden = []goldenCell{
	{Name: "gauss/base", Time: 13.225078387202814, Bytes: 144220044, Messages: 104742, Checksum: 265116.67143948283},
	{Name: "gauss/adapt", Time: 15.533285410203977, Bytes: 144637796, Messages: 108423, Checksum: 265116.67143948283},
	{Name: "gauss/hetero", Time: 25.458354757004326, Bytes: 147669828, Messages: 110546, Checksum: 265116.67143948283},
	{Name: "jacobi/base", Time: 0.8456902908000018, Bytes: 12481900, Messages: 7053, Checksum: 450862.44785374403},
	{Name: "jacobi/adapt", Time: 0.91886460600000286, Bytes: 10618244, Messages: 5933, Checksum: 450862.44785374403},
	{Name: "jacobi/hetero", Time: 1.6692256992000094, Bytes: 11121972, Messages: 6213, Checksum: 450862.44785374403},
	{Name: "fft3d/base", Time: 0.12269723999999989, Bytes: 1279232, Messages: 839, Checksum: 2607.0611865067449},
	{Name: "fft3d/adapt", Time: 0.13998571999999987, Bytes: 1156424, Messages: 744, Checksum: 2607.0611865067449},
	{Name: "fft3d/hetero", Time: 0.23293648000000033, Bytes: 1122984, Messages: 725, Checksum: 2607.0611865067449},
	{Name: "nbf/base", Time: 0.69320620799999999, Bytes: 5815504, Messages: 2929, Checksum: 18635.568711964494},
	{Name: "nbf/adapt", Time: 0.83327231200000096, Bytes: 5392448, Messages: 2688, Checksum: 18635.568711964494},
	{Name: "nbf/hetero", Time: 1.5133254000000051, Bytes: 5840800, Messages: 2913, Checksum: 18635.568711964494},
	{Name: "mergesort/base", Time: 0.33485052000000237, Bytes: 2457412, Messages: 1215, Checksum: 1676056.8523008034},
	{Name: "mergesort/adapt", Time: 0.31307232000000268, Bytes: 2531440, Messages: 1248, Checksum: 1676056.8523008034},
	{Name: "mergesort/hetero", Time: 0.45591356000000238, Bytes: 2481448, Messages: 1224, Checksum: 1676056.8523008034},
	{Name: "quadrature/base", Time: 0.1035649599999925, Bytes: 94176, Messages: 98, Checksum: 153.07934230313165},
	{Name: "quadrature/adapt", Time: 0.1048429599999925, Bytes: 98344, Messages: 100, Checksum: 153.07934230313165},
	{Name: "quadrature/hetero", Time: 0.13029503999998993, Bytes: 98504, Messages: 103, Checksum: 153.07934230313165},
}

// TestHLRCKernelMatrix runs the kernel matrix under HLRC and pins both
// halves of its contract: checksums must equal the Tmk goldens bit for
// bit, and virtual time, fabric bytes and message counts must reproduce
// hlrcGolden exactly.
func TestHLRCKernelMatrix(t *testing.T) {
	assertProtocolGolden(t, dsm.HLRC, hlrcGolden)
}

// hybridGolden pins the adaptive protocol's own cost matrix, captured
// with TestCaptureGolden under NOWOMP_REGEN_GOLDEN=hybrid. Unlike the
// Tmk table this is not a refactor-preservation contract — hybrid has
// no pre-refactor ancestor — it is a regression fence: classification
// thresholds, home-migration pricing and chain-window bounds all move
// these numbers, so an accidental change to any of them shows up as a
// diverged cell rather than a silent cost regression.
var hybridGolden = []goldenCell{
	{Name: "gauss/base", Time: 3.2798931072000683, Bytes: 6013632, Messages: 6438, Checksum: 265116.67143948283},
	{Name: "gauss/adapt", Time: 3.9552407971156827, Bytes: 6932584, Messages: 6932, Checksum: 265116.67143948283},
	{Name: "gauss/hetero", Time: 7.0784484185436503, Bytes: 6922568, Messages: 6945, Checksum: 265116.67143948283},
	{Name: "jacobi/base", Time: 0.50089191493905905, Bytes: 2311096, Messages: 2021, Checksum: 450862.44785374403},
	{Name: "jacobi/adapt", Time: 0.6766311245390586, Bytes: 2304520, Messages: 1797, Checksum: 450862.44785374403},
	{Name: "jacobi/hetero", Time: 0.99538825094062289, Bytes: 2297960, Messages: 1787, Checksum: 450862.44785374403},
	{Name: "fft3d/base", Time: 0.11120171999999982, Bytes: 853712, Messages: 635, Checksum: 2607.0611865067449},
	{Name: "fft3d/adapt", Time: 0.13203423999999991, Bytes: 711896, Messages: 522, Checksum: 2607.0611865067449},
	{Name: "fft3d/hetero", Time: 0.21576936000000038, Bytes: 684592, Messages: 504, Checksum: 2607.0611865067449},
	{Name: "nbf/base", Time: 0.55145704799999884, Bytes: 2163568, Messages: 1177, Checksum: 18635.568711964494},
	{Name: "nbf/adapt", Time: 0.76300007199999897, Bytes: 2253104, Messages: 1182, Checksum: 18635.568711964494},
	{Name: "nbf/hetero", Time: 1.3800799200000038, Bytes: 2680512, Messages: 1397, Checksum: 18635.568711964494},
	{Name: "mergesort/base", Time: 0.26202876000000119, Bytes: 1173280, Messages: 599, Checksum: 1676056.8523008034},
	{Name: "mergesort/adapt", Time: 0.28199008000000203, Bytes: 1105792, Messages: 564, Checksum: 1676056.8523008034},
	{Name: "mergesort/hetero", Time: 0.35168184000000113, Bytes: 1105792, Messages: 564, Checksum: 1676056.8523008034},
	{Name: "quadrature/base", Time: 0.10527831999999235, Bytes: 85808, Messages: 94, Checksum: 153.07934230313165},
	{Name: "quadrature/adapt", Time: 0.10524831999999235, Bytes: 85808, Messages: 94, Checksum: 153.07934230313165},
	{Name: "quadrature/hetero", Time: 0.13058039999998991, Bytes: 85968, Messages: 97, Checksum: 153.07934230313165},
}

// TestHybridKernelMatrix runs the kernel matrix under the adaptive
// hybrid protocol and pins both halves of its contract: checksums must
// equal the Tmk goldens bit for bit (classification and migration are
// invisible to program output), and virtual time, fabric bytes and
// message counts must reproduce hybridGolden exactly (the protocol's
// own pinned cost matrix).
func TestHybridKernelMatrix(t *testing.T) {
	assertProtocolGolden(t, dsm.Hybrid, hybridGolden)
}

// assertProtocolGolden runs the kernel matrix under proto and requires
// every checksum to equal the Tmk golden and every time, byte and
// message count to equal the protocol's own golden table.
func assertProtocolGolden(t *testing.T, proto dsm.ProtocolKind, golden []goldenCell) {
	t.Helper()
	got := goldenMatrix(t, proto)
	for _, c := range got {
		for _, w := range tmkGolden {
			if w.Name == c.Name && w.Checksum != c.Checksum {
				t.Errorf("%s: %v checksum %.17g, tmk golden %.17g", c.Name, proto, c.Checksum, w.Checksum)
			}
		}
	}
	if len(got) != len(golden) {
		t.Fatalf("matrix has %d cells, %v golden table %d", len(got), proto, len(golden))
	}
	for i, g := range got {
		w := golden[i]
		if g.Name != w.Name {
			t.Fatalf("cell %d is %q, %v golden table has %q", i, g.Name, proto, w.Name)
		}
		if g.Time != w.Time || g.Bytes != w.Bytes || g.Messages != w.Messages {
			t.Errorf("%s diverged from %v golden:\n  got  (%.17g s, %d B, %d msgs)\n  want (%.17g s, %d B, %d msgs)",
				g.Name, proto, g.Time, g.Bytes, g.Messages, w.Time, w.Bytes, w.Messages)
		}
	}
}
