// Package ckpt implements the fault-tolerance checkpointing of section
// 4.3 of Scherer et al. (PPoPP 1999). Checkpoints are taken only at
// adaptation points, where slave processes hold no private state: a
// garbage collection brings shared memory into a well-defined state,
// the master collects every page it lacks, and the master alone writes
// the checkpoint. Recovery restarts the master from the file; shared
// data redistributes through ordinary page faults.
//
// Where the paper's system checkpoints the master's whole process image
// with libckpt, this implementation saves the shared regions plus an
// application-supplied state map (the master's loop counters): at an
// adaptation point that *is* the recoverable state, which is exactly
// the argument the paper makes for checkpointing only there.
package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"nowomp/internal/dsm"
	"nowomp/internal/omp"
	"nowomp/internal/simtime"
)

// Snapshot is the on-disk checkpoint format.
type Snapshot struct {
	Version    int
	Regions    []omp.RegionDump
	Team       []int
	MasterTime float64
	Forks      int64
	State      map[string][]byte
	// Protocol records the coherence protocol of the checkpointed run
	// ("tmk", "hlrc" or "hybrid"); restore refuses a runtime configured
	// with a different one, because protocols price the recovery
	// differently.
	// Empty in pre-protocol snapshots, which restore as whatever the
	// config says (they were all Tmk).
	Protocol string
}

const version = 1

// Save checkpoints the runtime to w. It must be called between
// parallel constructs (an adaptation point). The state map carries the
// master program's resumption data — typically its outer iteration
// counter — gob-encoded per key.
func Save(rt *omp.Runtime, w io.Writer, state map[string]any) (dsm.TransferReport, error) {
	dumps, rep, err := rt.PrepareCheckpoint()
	if err != nil {
		return rep, fmt.Errorf("ckpt: collect: %w", err)
	}
	snap := Snapshot{
		Version:    version,
		Regions:    dumps,
		MasterTime: float64(rt.Now()),
		Forks:      rt.Forks(),
		State:      make(map[string][]byte, len(state)),
		Protocol:   rt.Cluster().Protocol().String(),
	}
	for _, h := range rt.Team() {
		snap.Team = append(snap.Team, int(h))
	}
	for k, v := range state {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return rep, fmt.Errorf("ckpt: encode state %q: %w", k, err)
		}
		snap.State[k] = buf.Bytes()
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return rep, fmt.Errorf("ckpt: write: %w", err)
	}
	return rep, nil
}

// SaveFile checkpoints the runtime to path, atomically (write to a
// temporary file, then rename), so a crash during checkpointing never
// corrupts the previous checkpoint.
func SaveFile(rt *omp.Runtime, path string, state map[string]any) (dsm.TransferReport, error) {
	tmp, err := os.CreateTemp(dirOf(path), ".ckpt-*")
	if err != nil {
		return dsm.TransferReport{}, fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name())
	rep, err := Save(rt, tmp, state)
	if err != nil {
		tmp.Close()
		return rep, err
	}
	if err := tmp.Close(); err != nil {
		return rep, fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return rep, fmt.Errorf("ckpt: %w", err)
	}
	return rep, nil
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// Restored gives access to the application state saved in a snapshot.
type Restored struct {
	state map[string][]byte
}

// State decodes the value saved under key into ptr.
func (r *Restored) State(key string, ptr any) error {
	raw, ok := r.state[key]
	if !ok {
		return fmt.Errorf("ckpt: no state saved under %q", key)
	}
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(ptr); err != nil {
		return fmt.Errorf("ckpt: decode state %q: %w", key, err)
	}
	return nil
}

// Keys lists the saved state keys.
func (r *Restored) Keys() []string {
	var ks []string
	for k := range r.state {
		ks = append(ks, k)
	}
	return ks
}

// Restore rebuilds a runtime from a checkpoint. The returned runtime
// is in restore mode: the master program must replay its shared-memory
// allocations (same names, sizes, order), which rebind to the
// checkpointed contents, and should then consult Restored.State to
// resume its outer loop.
func Restore(cfg omp.Config, r io.Reader) (*omp.Runtime, *Restored, error) {
	var snap Snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, nil, fmt.Errorf("ckpt: read: %w", err)
	}
	if snap.Version != version {
		return nil, nil, fmt.Errorf("ckpt: snapshot version %d, want %d", snap.Version, version)
	}
	if len(snap.Team) == 0 {
		return nil, nil, fmt.Errorf("ckpt: snapshot has no team")
	}
	if math.IsNaN(snap.MasterTime) || math.IsInf(snap.MasterTime, 0) || snap.MasterTime < 0 {
		return nil, nil, fmt.Errorf("ckpt: master time %v is not a finite non-negative time", snap.MasterTime)
	}
	if snap.Forks < 0 {
		return nil, nil, fmt.Errorf("ckpt: negative fork count %d", snap.Forks)
	}
	if snap.Protocol != "" && snap.Protocol != cfg.Protocol.String() {
		return nil, nil, fmt.Errorf("ckpt: snapshot was taken under the %s protocol, config selects %s; restore with the matching Config.Protocol",
			snap.Protocol, cfg.Protocol)
	}
	rt, err := omp.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	team := make([]dsm.HostID, len(snap.Team))
	seen := make([]bool, cfg.Hosts)
	for i, h := range snap.Team {
		if h < 0 || h >= cfg.Hosts {
			return nil, nil, fmt.Errorf("ckpt: checkpointed host %d outside pool of %d", h, cfg.Hosts)
		}
		if seen[h] {
			return nil, nil, fmt.Errorf("ckpt: checkpointed team lists host %d twice", h)
		}
		seen[h] = true
		team[i] = dsm.HostID(h)
	}
	if err := rt.RestoreTeam(team); err != nil {
		return nil, nil, err
	}
	rt.BeginRestore(snap.Regions, simtime.Seconds(snap.MasterTime), snap.Forks)
	return rt, &Restored{state: snap.State}, nil
}

// RestoreFile rebuilds a runtime from the checkpoint at path.
func RestoreFile(cfg omp.Config, path string) (*omp.Runtime, *Restored, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return Restore(cfg, f)
}
