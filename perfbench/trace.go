package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"nowomp/internal/omp"
	"nowomp/internal/scenario"
)

// span is one timed call the benchmark made into the program, or one
// parallel region seen by the fork hook. Spans of one scenario share
// its hash as ID; Parent indexes the span that caused this one (-1 for
// a root).
type span struct {
	Name   string  `json:"name"`
	ID     string  `json:"id,omitempty"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Cell and region spans carry what they cost in the simulation:
	// simulated seconds, fabric bytes and DSM faults.
	SimS   float64 `json:"sim_s,omitempty"`
	Bytes  int64   `json:"fabric_bytes,omitempty"`
	Faults int64   `json:"faults,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced passes run.
type tracer struct {
	t0        time.Time
	mu        sync.Mutex
	spans     []span
	scenarios map[string]scenario.Spec // span ID -> the spec it names
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), scenarios: map[string]scenario.Spec{}}
}

// describe records the spec behind a scenario hash, so the written
// trace says what each span ID ran.
func (t *tracer) describe(hash string, s scenario.Spec) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.scenarios[hash] = s
	t.mu.Unlock()
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// annotate records what span i cost in the simulation.
func (t *tracer) annotate(i int, simS float64, bytes, faults int64) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[i]
	s.SimS, s.Bytes, s.Faults = simS, bytes, faults
	t.mu.Unlock()
}

// regionDurations returns the host duration of every fork-hook region.
func (t *tracer) regionDurations() []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == regionSpan {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores the per-layer host seconds, the specs and the spans as
// JSON.
func (t *tracer) write(path string, host map[string]float64) error {
	data, err := json.MarshalIndent(struct {
		HostSeconds map[string]float64       `json:"host_seconds"`
		Scenarios   map[string]scenario.Spec `json:"scenarios"`
		Spans       []span                   `json:"spans"`
	}{host, t.scenarios, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

const regionSpan = "omp.region"

// regionHook returns a read-only fork hook that turns the interval
// between consecutive forks of one runtime into a region span under
// parent, and a finish function that closes the last region. The hook
// only reads the runtime's clock and counters, so a cell runs the same
// with or without it (TestForkHookTransparent pins this).
func regionHook(t *tracer, parent int, id string) (hook func(*omp.Runtime), finish func(*omp.Runtime)) {
	open := -1
	var sim0 float64
	var bytes0, faults0 int64
	mark := func(rt *omp.Runtime) {
		sim := float64(rt.Now())
		bytes := rt.Cluster().Fabric().Snapshot().TotalBytes()
		st := rt.Cluster().Stats().Snapshot()
		faults := st.ReadFaults + st.WriteFaults
		if open >= 0 {
			t.end(open)
			t.annotate(open, sim-sim0, bytes-bytes0, faults-faults0)
		}
		sim0, bytes0, faults0 = sim, bytes, faults
	}
	hook = func(rt *omp.Runtime) {
		mark(rt)
		open = t.begin(regionSpan, id, parent)
	}
	finish = func(rt *omp.Runtime) {
		mark(rt)
		open = -1
	}
	return hook, finish
}

// Host self time per layer comes from a CPU profile of the traced
// passes. The profile is decoded here with the standard library: the
// pprof format is a gzipped protocol buffer, and only samples,
// locations, functions and the string table are needed.

// layerOfPackage maps a nowomp/internal package to the layer its host
// time is reported under; packages folded into a neighbour map to it.
var layerOfPackage = map[string]string{
	"apps": "apps", "shmem": "shmem", "page": "page",
	"dsm": "dsm", "vc": "dsm",
	"engine": "engine", "simtime": "engine",
	"omp": "omp", "task": "task",
	"adapt": "adapt", "migrate": "adapt",
	"simnet": "simnet", "machine": "simnet",
	"scenario": "scenario", "farm": "farm", "bench": "bench",
}

// hostLayers lists the host.*_s metrics; "runtime" collects samples
// with no frame in a listed layer (Go runtime, standard library and the
// benchmark's own code).
var hostLayers = []string{"apps", "shmem", "page", "dsm", "engine", "omp", "task", "adapt", "simnet", "scenario", "farm", "bench", "runtime"}

// layerOf returns the layer of a function name, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, "nowomp/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return layerOfPackage[rest]
}

// profileHostSeconds attributes every sample of a CPU profile to the
// innermost frame that belongs to a layer and returns CPU seconds per
// layer.
func profileHostSeconds(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		typeUnits [][2]uint64 // sample_type (type, unit) string indices
		samples   [][2][]uint64
		locFuncs  = map[uint64][]uint64{}
		funcNames = map[uint64]uint64{}
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var tu [2]uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					tu[f-1] = v
				}
				return nil
			})
			typeUnits = append(typeUnits, tu)
			return err
		case 2: // sample
			var s [2][]uint64
			err := pbFields(b, func(f int, v uint64, pb []byte) error {
				if f == 1 || f == 2 {
					s[f-1] = pbRepeated(s[f-1], v, pb)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first line is the innermost inlined call
					return pbFields(lb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, tu := range typeUnits {
		if str(tu[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	out := map[string]float64{}
	for _, s := range samples {
		if cpu >= len(s[1]) {
			continue
		}
		layer := "runtime"
	frames:
		for _, loc := range s[0] {
			for _, fn := range locFuncs[loc] {
				if l := layerOf(str(funcNames[fn])); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += float64(int64(s[1][cpu])) / 1e9
	}
	return out, nil
}

// pbFields walks the fields of a protocol-buffer message, passing each
// field number with its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated appends one element of a repeated integer field, which is
// either a single varint or a packed run of them.
func pbRepeated(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst, packed = append(dst, x), packed[n:]
	}
	return dst
}

// traceFiles returns the span and profile paths of one traced run.
func traceFiles(dir, workload string, seed int64) (spans, profile string) {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	return base + ".spans.json", base + ".cpu.pprof"
}
