// Package sim is a synchronous point-to-point network simulator matching
// the paper's system model: nodes execute in lockstep rounds, each directed
// link has a fixed capacity z_e, and transmitting b bits over a link is
// charged b/z_e time units.
//
// Node behaviour is supplied as Process implementations; each round every
// process, in node order on the caller's goroutine, consumes the messages
// delivered to it and emits messages for the next round. Byzantine nodes
// are ordinary Process implementations that happen to lie — the engine
// enforces only physics: a node can send solely on its own outgoing links
// in the current topology, and every transmitted bit is charged to the
// link.
//
// Two time accountings are exposed per phase, matching the paper's two
// regimes:
//
//   - cut-through (zero propagation delay, the paper's default): a phase
//     lasts max over links of total-bits/capacity, regardless of hop count;
//   - store-and-forward: rounds are sequential, each lasting the max over
//     links of that round's bits/capacity (the regime that motivates the
//     Appendix D pipelining construction).
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"nab/internal/graph"
)

// Message is one transmission over a directed link. Bits is the
// information-theoretic size charged against the link capacity; Body is the
// payload, opaque to the engine.
type Message struct {
	From graph.NodeID
	To   graph.NodeID
	Bits int64
	Body any
}

// Process is per-node behaviour. Step is called once per round with the
// messages delivered this round (sorted by sender) and returns the messages
// to be delivered next round. Step must be safe to run concurrently with
// other nodes' Step calls (message-driven engines such as
// internal/runtime's invoke each node from its own goroutine) but is never
// invoked concurrently with itself.
type Process interface {
	Step(round int, inbox []Message) []Message
}

// StepFunc adapts a function to the Process interface.
type StepFunc func(round int, inbox []Message) []Message

// Step implements Process.
func (f StepFunc) Step(round int, inbox []Message) []Message { return f(round, inbox) }

// Silent is a Process that never sends anything (a crashed node, or a node
// that ignores a phase).
var Silent Process = StepFunc(func(int, []Message) []Message { return nil })

// PhaseStats aggregates the capacity charges of one phase. The lockstep
// engine fills one in during RunPhase; message-driven engines build one via
// NewPhaseStats/Charge.
type PhaseStats struct {
	Name        string
	Rounds      int
	BitsPerLink map[[2]graph.NodeID]int64
	caps        map[[2]graph.NodeID]int64
	roundMax    []float64 // per-round max bits/capacity
	totalBits   int64

	// Accumulator state (NewPhaseStats path only).
	mu        sync.Mutex
	roundBits []map[[2]graph.NodeID]int64
}

// CutThroughTime returns the phase duration in the zero-propagation-delay
// model: max over links of total bits / capacity.
func (ps *PhaseStats) CutThroughTime() float64 {
	return ps.maxOverLinks(ps.BitsPerLink)
}

// StoreForwardTime returns the phase duration when rounds are sequential:
// the sum over rounds of each round's max bits/capacity.
func (ps *PhaseStats) StoreForwardTime() float64 {
	var sum float64
	for _, m := range ps.roundMax {
		sum += m
	}
	return sum
}

// TotalBits returns the number of bits transmitted during the phase.
func (ps *PhaseStats) TotalBits() int64 { return ps.totalBits }

func (ps *PhaseStats) maxOverLinks(bits map[[2]graph.NodeID]int64) float64 {
	var out float64
	for key, b := range bits {
		if t := float64(b) / float64(ps.caps[key]); t > out {
			out = t
		}
	}
	return out
}

// SentRecord is one transcript entry (for tests and metrics; protocol code
// must never read the global transcript — honest nodes only see their own
// links).
type SentRecord struct {
	Phase string
	Round int
	Msg   Message
}

// Engine drives one topology. It is not safe for concurrent use.
type Engine struct {
	g       *graph.Directed
	procs   map[graph.NodeID]Process
	pending []Message // queued for delivery at the next round
	record  bool
	records []SentRecord
	dropped int
}

// New returns an engine over topology g. All nodes default to Silent.
func New(g *graph.Directed) *Engine {
	e := &Engine{g: g.Clone(), procs: map[graph.NodeID]Process{}, record: true}
	for _, v := range g.Nodes() {
		e.procs[v] = Silent
	}
	return e
}

// Graph returns a copy of the engine's topology.
func (e *Engine) Graph() *graph.Directed { return e.g.Clone() }

// SetProcess installs the behaviour for node v.
func (e *Engine) SetProcess(v graph.NodeID, p Process) error {
	if !e.g.HasNode(v) {
		return fmt.Errorf("sim: node %d not in topology", v)
	}
	if p == nil {
		return fmt.Errorf("sim: nil process for node %d", v)
	}
	e.procs[v] = p
	return nil
}

// SetRecording toggles transcript recording (on by default).
func (e *Engine) SetRecording(on bool) { e.record = on }

// Records returns the transcript so far.
func (e *Engine) Records() []SentRecord { return e.records }

// Dropped returns how many messages were discarded for violating physics
// (sent on a non-existent link). Nonzero values with honest-only processes
// indicate protocol bugs; tests assert on this.
func (e *Engine) Dropped() int { return e.dropped }

// Seed injects messages for delivery in the first round of the next phase;
// used to hand a phase its inputs without charging any link (e.g. the
// source's own value "received from itself").
func (e *Engine) Seed(msgs []Message) {
	e.pending = append(e.pending, msgs...)
}

// RunPhase executes rounds lockstep rounds under the given phase label and
// returns the phase's capacity charges. Messages emitted in the final round
// remain pending and are delivered in the next phase's first round.
func (e *Engine) RunPhase(name string, rounds int) (*PhaseStats, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("sim: rounds = %d must be positive", rounds)
	}
	ps := &PhaseStats{
		Name:        name,
		Rounds:      rounds,
		BitsPerLink: map[[2]graph.NodeID]int64{},
		caps:        map[[2]graph.NodeID]int64{},
	}
	for _, ed := range e.g.Edges() {
		ps.caps[[2]graph.NodeID{ed.From, ed.To}] = ed.Cap
	}

	nodes := e.g.Nodes()
	for round := 0; round < rounds; round++ {
		inboxes := e.routePending()

		// Nodes step one after another: a round's steps are independent,
		// and a goroutine per node per round costs more in scheduling than
		// the steps themselves.
		outs := make([][]Message, len(nodes))
		for i, v := range nodes {
			outs[i] = e.procs[v].Step(round, inboxes[v])
		}

		var roundBits = map[[2]graph.NodeID]int64{}
		for i, v := range nodes {
			for _, m := range outs[i] {
				if m.From != v {
					// A node cannot forge another sender; physics drops it.
					e.dropped++
					continue
				}
				if !e.g.HasEdge(m.From, m.To) {
					e.dropped++
					continue
				}
				if m.Bits < 0 {
					e.dropped++
					continue
				}
				key := [2]graph.NodeID{m.From, m.To}
				ps.BitsPerLink[key] += m.Bits
				roundBits[key] += m.Bits
				ps.totalBits += m.Bits
				e.pending = append(e.pending, m)
				if e.record {
					e.records = append(e.records, SentRecord{Phase: name, Round: round, Msg: m})
				}
			}
		}
		var rm float64
		for key, b := range roundBits {
			if t := float64(b) / float64(ps.caps[key]); t > rm {
				rm = t
			}
		}
		ps.roundMax = append(ps.roundMax, rm)
	}
	return ps, nil
}

// routePending distributes queued messages into per-recipient inboxes with
// deterministic ordering (by sender, then queue order). The inboxes are
// capped windows of the sorted queue, which the engine hands over and does
// not reuse.
func (e *Engine) routePending() map[graph.NodeID][]Message {
	msgs := e.pending
	e.pending = make([]Message, 0, len(msgs))
	slices.SortStableFunc(msgs, func(a, b Message) int {
		return cmp.Or(cmp.Compare(a.To, b.To), cmp.Compare(a.From, b.From))
	})
	inboxes := map[graph.NodeID][]Message{}
	for len(msgs) > 0 {
		n := 1
		for n < len(msgs) && msgs[n].To == msgs[0].To {
			n++
		}
		inboxes[msgs[0].To], msgs = msgs[:n:n], msgs[n:]
	}
	return inboxes
}
