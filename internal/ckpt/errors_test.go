package ckpt

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"nowomp/internal/omp"
)

func TestSaveRejectsUnencodableState(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 2, Procs: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AllocFloat64("a", 16); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, err = Save(rt, &buf, map[string]any{"bad": make(chan int)})
	if err == nil || !strings.Contains(err.Error(), "encode state") {
		t.Fatalf("unencodable state must fail, got %v", err)
	}
}

func TestRestoreVersionMismatch(t *testing.T) {
	snap := Snapshot{Version: 999, Team: []int{0}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	_, _, err := Restore(omp.Config{Hosts: 2, Procs: 1, Adaptive: true}, &buf)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch must fail, got %v", err)
	}
}

func TestRestoreEmptyTeam(t *testing.T) {
	snap := Snapshot{Version: version}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	_, _, err := Restore(omp.Config{Hosts: 2, Procs: 1, Adaptive: true}, &buf)
	if err == nil || !strings.Contains(err.Error(), "no team") {
		t.Fatalf("empty team must fail, got %v", err)
	}
}

func TestRestoreHostOutsidePool(t *testing.T) {
	snap := Snapshot{Version: version, Team: []int{0, 9}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	_, _, err := Restore(omp.Config{Hosts: 2, Procs: 1, Adaptive: true}, &buf)
	if err == nil || !strings.Contains(err.Error(), "outside pool") {
		t.Fatalf("out-of-pool host must fail, got %v", err)
	}
}

// TestRestoreRejectsMalformedSnapshots feeds Restore snapshots whose
// decoded fields are well-typed but meaningless: each must return an
// error naming the bad field rather than build a runtime from it.
func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	for _, tc := range []struct {
		name string
		snap Snapshot
		want string
	}{
		{"duplicate host", Snapshot{Version: version, Team: []int{0, 0}}, "twice"},
		{"NaN master time", Snapshot{Version: version, Team: []int{0}, MasterTime: math.NaN()}, "master time"},
		{"infinite master time", Snapshot{Version: version, Team: []int{0}, MasterTime: math.Inf(1)}, "master time"},
		{"negative master time", Snapshot{Version: version, Team: []int{0}, MasterTime: -5}, "master time"},
		{"negative forks", Snapshot{Version: version, Team: []int{0}, Forks: -3}, "fork count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&tc.snap); err != nil {
				t.Fatal(err)
			}
			rt, _, err := Restore(omp.Config{Hosts: 2, Procs: 1, Adaptive: true}, &buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				var team any
				if rt != nil {
					team = rt.Team()
				}
				t.Fatalf("malformed snapshot must fail with %q, got err %v (team %v)", tc.want, err, team)
			}
		})
	}
}

// FuzzRestore feeds Restore arbitrary bytes, seeded with one valid
// snapshot and the malformed ones above. Truncated or corrupt input
// must return an error, never panic; a snapshot that restores must
// also survive the first step of the allocation replay.
func FuzzRestore(f *testing.F) {
	cfg := omp.Config{Hosts: 2, Procs: 1, Adaptive: true}
	rt, err := omp.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := omp.Alloc[float64](rt, "a", 16); err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := Save(rt, &valid, map[string]any{"iter": 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	for _, snap := range []Snapshot{
		{Version: version, Team: []int{0, 0}},
		{Version: version, Team: []int{0}, MasterTime: math.NaN()},
		{Version: version, Team: []int{0}, MasterTime: -5},
		{Version: version, Team: []int{0}, Forks: -3},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rt, restored, err := Restore(cfg, bytes.NewReader(data))
		if err != nil {
			return
		}
		if rt.Now() < 0 || rt.Forks() < 0 {
			t.Fatalf("restored runtime has clock %v, forks %d", rt.Now(), rt.Forks())
		}
		// Only panics fail here: fuzzed state and replay may well be
		// rejected with an error.
		var iter int
		_ = restored.State("iter", &iter)
		_, _ = omp.Alloc[float64](rt, "a", 16)
	})
}

func TestRestoredKeys(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 2, Procs: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AllocFloat64("a", 16); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Save(rt, &buf, map[string]any{"x": 1, "y": "two"}); err != nil {
		t.Fatal(err)
	}
	_, restored, err := Restore(omp.Config{Hosts: 2, Procs: 1, Adaptive: true}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	keys := restored.Keys()
	if len(keys) != 2 {
		t.Fatalf("keys = %v, want 2 entries", keys)
	}
	var y string
	if err := restored.State("y", &y); err != nil || y != "two" {
		t.Fatalf("y = %q, err %v", y, err)
	}
	// Type mismatch on decode.
	var wrong int
	if err := restored.State("y", &wrong); err == nil {
		t.Fatal("type-mismatched decode must fail")
	}
}

func TestSaveFileBadDirectory(t *testing.T) {
	rt, err := omp.New(omp.Config{Hosts: 2, Procs: 1, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaveFile(rt, "/nonexistent-dir-xyz/x.ckpt", nil); err == nil {
		t.Fatal("unwritable directory must fail")
	}
}

func TestDirOf(t *testing.T) {
	if got := dirOf("/a/b/c.ckpt"); got != "/a/b" {
		t.Fatalf("dirOf = %q", got)
	}
	if got := dirOf("c.ckpt"); got != "." {
		t.Fatalf("dirOf bare = %q", got)
	}
}
