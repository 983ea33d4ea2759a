package main

import (
	"sync/atomic"
	"time"

	"nab"
	"nab/internal/graph"
	"nab/internal/transport"
)

// sendSamples is the size of the ring of Link.Send durations kept while
// a traced window is armed; it holds the latest sends.
const sendSamples = 1 << 16

// countingTransport wraps the workload's Transport from outside the
// program: it counts data frames and markers, times Link.Send, and
// measures how long each node's receive loop sits blocked in Recv.
type countingTransport struct {
	inner nab.Transport

	data    atomic.Int64
	markers atomic.Int64

	armed   atomic.Bool
	sendIdx atomic.Uint64
	sendNS  [sendSamples]atomic.Int64

	// recv[slot[v]] accounts node v's Recv calls.
	slot map[graph.NodeID]int
	recv []recvClock
}

// recvClock is one node's blocked-in-Recv time: the finished calls'
// total plus the start of the call in progress (0 when none).
type recvClock struct {
	total atomic.Int64
	since atomic.Int64
}

func newCountingTransport(inner nab.Transport, g *nab.Graph) *countingTransport {
	t := &countingTransport{inner: inner, slot: map[graph.NodeID]int{}}
	for i, v := range g.Nodes() {
		t.slot[v] = i
	}
	t.recv = make([]recvClock, len(t.slot))
	return t
}

func (t *countingTransport) Dial(from, to graph.NodeID) (transport.Link, error) {
	l, err := t.inner.Dial(from, to)
	if err != nil {
		return nil, err
	}
	return &countingLink{inner: l, t: t}, nil
}

func (t *countingTransport) Recv(self graph.NodeID) (*transport.Message, error) {
	c := &t.recv[t.slot[self]]
	t0 := time.Now().UnixNano()
	c.since.Store(t0)
	m, err := t.inner.Recv(self)
	c.since.Store(0)
	c.total.Add(time.Now().UnixNano() - t0)
	return m, err
}

func (t *countingTransport) LinkBits() map[[2]graph.NodeID]int64 { return t.inner.LinkBits() }

func (t *countingTransport) Close() error { return t.inner.Close() }

// arm starts collecting Send durations afresh; disarm stops and returns
// the collected samples in microseconds.
func (t *countingTransport) arm() {
	t.sendIdx.Store(0)
	t.armed.Store(true)
}

func (t *countingTransport) disarm() []float64 {
	t.armed.Store(false)
	n := t.sendIdx.Load()
	if n > sendSamples {
		n = sendSamples
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(t.sendNS[i].Load()) / 1e3
	}
	return out
}

// idleNS is the total time every receive loop has spent blocked in
// Recv, counting calls still in progress up to now.
func (t *countingTransport) idleNS() int64 {
	now := time.Now().UnixNano()
	var sum int64
	for i := range t.recv {
		c := &t.recv[i]
		sum += c.total.Load()
		if s := c.since.Load(); s != 0 {
			sum += now - s
		}
	}
	return sum
}

// linkBits sums the transport's per-link capacity charges.
func (t *countingTransport) linkBits() int64 {
	var sum int64
	for _, b := range t.inner.LinkBits() {
		sum += b
	}
	return sum
}

type countingLink struct {
	inner transport.Link
	t     *countingTransport
}

func (l *countingLink) Send(m *transport.Message) error {
	t0 := time.Now()
	err := l.inner.Send(m)
	d := time.Since(t0)
	if m.Marker {
		l.t.markers.Add(1)
	} else {
		l.t.data.Add(1)
	}
	if l.t.armed.Load() {
		i := l.t.sendIdx.Add(1) - 1
		l.t.sendNS[i%sendSamples].Store(int64(d))
	}
	return err
}

func (l *countingLink) Close() error { return l.inner.Close() }
