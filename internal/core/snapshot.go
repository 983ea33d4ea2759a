package core

import (
	"fmt"
	"sort"

	"nab/internal/graph"
)

// SnapshotState is the portable cross-instance engine state at a commit
// watermark: everything an engine needs to boot at instance K+1 with no
// per-instance replay. Unlike a Checkpoint fold, the dispute-graph
// generation is carried explicitly — plan seeds derive from it, so
// an engine restored from a snapshot plans byte-identical coding schemes
// to one that folded the full history. The zero value is the fresh
// pre-instance-1 state.
type SnapshotState struct {
	// K is the watermark: every instance <= K is committed and folded.
	K int
	// Gen is the dispute-state generation at K.
	Gen int
	// Disputes holds the accumulated pairs, MarkFaulty expansions
	// included; Faulty the nodes proven faulty. Order is irrelevant for
	// restoration (callers canonicalize for wire encoding).
	Disputes [][2]graph.NodeID
	Faulty   []graph.NodeID
}

// RestoreState rebuilds the DisputeState a full in-order fold of the
// first s.K instances would have produced, trusting s.Gen rather than
// re-deriving it (the per-fold progress history is not recoverable from
// the accumulated sets alone).
func (p *Protocol) RestoreState(s SnapshotState) (*DisputeState, error) {
	ds := NewDisputeState(p.cfg.Graph)
	progress, err := ds.merge(p.cfg.Graph, s.Disputes, s.Faulty)
	if err != nil {
		return nil, fmt.Errorf("core: restore snapshot: %w", err)
	}
	if progress {
		next, _, err := ds.disputes.Apply(p.cfg.Graph, p.cfg.F)
		if err != nil {
			return nil, fmt.Errorf("core: restore snapshot: diminishing graph: %w", err)
		}
		ds.gk = next
	}
	if s.Gen < 0 {
		return nil, fmt.Errorf("core: restore snapshot: negative generation %d", s.Gen)
	}
	ds.gen = s.Gen
	return ds, nil
}

// SnapshotBuilder mirrors dispute-state evolution outside a live engine:
// seed it with a base snapshot (or nothing, for instance 0), fold
// committed results in order, and read back the SnapshotState at any
// watermark along the way. It merges findings by Protocol.Fold's
// generation rule, so snapshots synthesized by different processes (from
// different bases) stay byte-identical, but skips diminishing G_k, which
// a snapshot does not carry.
type SnapshotBuilder struct {
	g  *graph.Directed
	ds *DisputeState // gk stays G: the builder never plans
	k  int
}

// NewSnapshotBuilder returns a builder at the fresh pre-instance-1 state
// of topology g.
func NewSnapshotBuilder(g *graph.Directed) *SnapshotBuilder {
	return &SnapshotBuilder{g: g, ds: NewDisputeState(g)}
}

// Seed resets the builder to base. Returns the builder for chaining.
func (b *SnapshotBuilder) Seed(base SnapshotState) (*SnapshotBuilder, error) {
	b.ds = NewDisputeState(b.g)
	if _, err := b.ds.merge(b.g, base.Disputes, base.Faulty); err != nil {
		return nil, err
	}
	b.k, b.ds.gen = base.K, base.Gen
	return b, nil
}

// Fold advances the mirror by one committed instance. Results must be
// folded in commit order starting at the seed watermark + 1.
func (b *SnapshotBuilder) Fold(ir *InstanceResult) error {
	if ir.K != b.k+1 {
		return fmt.Errorf("core: snapshot builder: fold of instance %d at watermark %d", ir.K, b.k)
	}
	b.k = ir.K
	if !ir.Phase3 {
		return nil
	}
	_, err := b.ds.merge(b.g, ir.NewDisputes, ir.NewFaulty)
	return err
}

// K returns the builder's current watermark.
func (b *SnapshotBuilder) K() int { return b.k }

// Gen returns the builder's current generation.
func (b *SnapshotBuilder) Gen() int { return b.ds.gen }

// State captures the snapshot at the current watermark. Disputes and
// Faulty come out in the canonical sorted order, so equal states encode
// to equal bytes everywhere.
func (b *SnapshotBuilder) State() SnapshotState {
	s := SnapshotState{K: b.k, Gen: b.ds.gen, Disputes: b.ds.disputes.Pairs()}
	for v := range b.ds.faultySoFar {
		s.Faulty = append(s.Faulty, v)
	}
	sort.Slice(s.Faulty, func(i, j int) bool { return s.Faulty[i] < s.Faulty[j] })
	return s
}
