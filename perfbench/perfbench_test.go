package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"reflect"
	"runtime/pprof"
	"slices"
	"testing"

	"nowomp/internal/omp"
	"nowomp/internal/scenario"
)

// runCell runs one spec the way the benchmark does, optionally with the
// region hook installed, and assembles the scenario.Result that
// scenario.Run would return for it.
func runCell(t *testing.T, s scenario.Spec, hooked bool) ([]byte, tally) {
	t.Helper()
	norm, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := norm.Hash()
	if err != nil {
		t.Fatal(err)
	}
	rt, _, err := norm.Build()
	if err != nil {
		t.Fatal(err)
	}
	runner, err := norm.Runner()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	finish := func(*omp.Runtime) {}
	if hooked {
		var hook func(*omp.Runtime)
		hook, finish = regionHook(tr, -1, hash)
		rt.SetForkHook(hook)
	}
	res, err := runner.Run(rt, norm.Scale)
	if err != nil {
		t.Fatal(err)
	}
	finish(rt)
	if hooked && int64(len(tr.regionDurations())) != rt.Forks() {
		t.Fatalf("%d region spans for %d forks", len(tr.regionDurations()), rt.Forks())
	}
	adaptations := 0
	for _, ap := range rt.AdaptLog() {
		adaptations += len(ap.Applied)
	}
	enc, err := scenario.Result{
		Scenario: fmt.Sprintf("farm/%s/%dp", norm.Kernel, norm.Procs),
		Seconds:  float64(res.Time), Bytes: res.Bytes, Messages: res.Messages,
		Hash: hash, Spec: norm,
		Pages: res.Pages, Diffs: res.Diffs, SharedBytes: res.SharedBytes,
		Checksum: res.Checksum, Verified: norm.Verify,
		TeamFinal: rt.NProcs(), Adaptations: adaptations,
	}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc, cellTally(rt, norm.Protocol, float64(res.Time), res.Bytes, res.Messages)
}

// The fork hook only reads: one adaptive cell per protocol gives
// byte-identical results and identical counts with and without it, and
// both match scenario.Run.
func TestForkHookTransparent(t *testing.T) {
	for _, p := range protocols {
		s := scenario.Spec{Kernel: "jacobi", Scale: 0.05, Procs: 4, Hosts: 6, Protocol: p,
			Adaptive: true, Schedule: "0.05:leave:3,0.12:join:3"}
		plain, plainCounts := runCell(t, s, false)
		hooked, hookedCounts := runCell(t, s, true)
		if !bytes.Equal(plain, hooked) {
			t.Errorf("%s: hooked result differs:\n%s\nvs\n%s", p, plain, hooked)
		}
		if !maps.Equal(plainCounts, hookedCounts) {
			t.Errorf("%s: hooked counts differ:\n%v\nvs\n%v", p, plainCounts, hookedCounts)
		}
		if plainCounts["adapt.events"] == 0 {
			t.Errorf("%s: the schedule applied no events", p)
		}
		want, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if enc, _ := want.Encode(); !bytes.Equal(enc, plain) {
			t.Errorf("%s: result differs from scenario.Run:\n%s\nvs\n%s", p, enc, plain)
		}
	}
}

// Every generator is a pure function of the seed, and every spec it
// generates is valid.
func TestGeneratorsArePureFunctionsOfSeed(t *testing.T) {
	gens := map[string]func(int64) any{
		"kernels": func(s int64) any { return kernelSpecs(s) },
		"adapt":   func(s int64) any { return adaptSpecs(s) },
		"sync":    func(s int64) any { return syncPlanFor(s) },
		"farm":    func(s int64) any { return farmPlanFor(s) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		specs := append(kernelSpecs(seed), adaptSpecs(seed)...)
		specs = append(specs, farmPlanFor(seed).specs...)
		for _, s := range specs {
			if _, err := s.Normalize(); err != nil {
				t.Errorf("seed %d: %+v: %v", seed, s, err)
			}
		}
	}
}

// onePass runs a single untraced pass of a workload and returns the
// measurement.
func onePass(t *testing.T, workload string) *measurement {
	t.Helper()
	setup, ok := newSetup(workload, 1)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	m := &measurement{workload: workload, seed: 1, setup: setup}
	if err := m.pass(&m.untraced, false); err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 {
		t.Fatalf("%s: %d jobs failed: %v", workload, m.failed, m.errs)
	}
	return m
}

// Each workload exercises the layer it is meant to, and the workloads
// meant to bypass a layer do not reach it.
func TestWorkloadLayerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one full pass of every workload")
	}
	ms := map[string]*measurement{}
	for _, w := range workloads {
		ms[w.name] = onePass(t, w.name)
	}
	count := func(w, k string) float64 { return ms[w].exact[k] }
	if n := count("kernels", "dsm.lock_acquires"); n != 0 {
		t.Errorf("kernels: %v lock acquires, want 0", n)
	}
	if n := count("sync", "dsm.lock_acquires"); n == 0 {
		t.Error("sync: no lock acquires")
	}
	for _, w := range workloads {
		if n := count(w.name, "adapt.events"); (n > 0) != (w.name == "adapt") {
			t.Errorf("%s: %v adapt events", w.name, n)
		}
	}
	if r := median(ms["farm"].untraced.perPass["farm.hit_ratio"]); !(r > 0 && r < 1) {
		t.Errorf("farm: hit ratio %v, want strictly between 0 and 1", r)
	}
	// Twins per cell: sync's twins come from its probe cells only.
	kernels := count("kernels", "dsm.twins") / float64(len(kernelSpecs(1)))
	sync := count("sync", "dsm.twins") / float64(len(syncPlanFor(1).probes))
	if kernels < 10*sync {
		t.Errorf("twins per cell: kernels %v, sync %v; want kernels at least 10x", kernels, sync)
	}
}

// The profile decoder attributes a simulation's CPU time to its layers.
func TestProfileHostSeconds(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for range 4 {
		if _, err := (scenario.Spec{Kernel: "jacobi", Scale: 0.15, Protocol: "hlrc"}).Run(); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	host, err := profileHostSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for k := range host {
		if !slices.Contains(hostLayers, k) {
			t.Errorf("unknown layer %q", k)
		}
	}
	if host["dsm"]+host["shmem"]+host["page"]+host["apps"] == 0 {
		t.Errorf("no time in the simulator's layers: %v", host)
	}
}

// The printed metric catalogue is the one BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if i >= len(b.Workloads) || b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json does not list %q with its reason", i, w.name)
		}
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(defs))
		}
		for i := range min(len(got), len(defs)) {
			if d := defs[i]; got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark prints %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}

// A run prints, as its last line, one JSON object with exactly the
// contract's keys and every metric of the mode.
func TestOutputContract(t *testing.T) {
	for trace, defs := range [][]metricDef{endToEnd, perLayer} {
		var out bytes.Buffer
		args := []string{"-workload", "farm", "-seed", "3", "-seconds", "1",
			"-trace", fmt.Sprint(trace), "-out", t.TempDir()}
		if code := run(args, &out); code != 0 {
			t.Fatalf("trace %d: exit %d", trace, code)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var r map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			t.Fatal(err)
		}
		if keys := slices.Sorted(maps.Keys(r)); !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Fatalf("trace %d: keys %v", trace, keys)
		}
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Errorf("trace %d: %+v", trace, res)
		}
	}
}
