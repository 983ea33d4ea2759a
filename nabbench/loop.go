package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"nab"
)

// payload returns the deterministic payload of sequence number seq for
// seed: a splitmix64 stream, so every session of a run (and every run of
// a seed) submits the same bytes without storing them.
func payload(seed int64, seq int, n int) []byte {
	out := make([]byte, n+7)
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(seq)*0xbf58476d1ce4e5b9
	for i := 0; i < n; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(out[i:], z^(z>>31))
	}
	return out[:n]
}

// commitRec is one commit as the reader saw it. It keeps a few numbers
// of the InstanceResult, not the result itself: a load generator whose
// live heap grew with every commit would slow the program's GC less and
// less as the run went on.
type commitRec struct {
	seq   int
	recv  time.Time
	cpu   time.Duration // process CPU time when the commit was received
	lat   time.Duration
	model float64 // InstanceResult.TotalTime, model time units
	bits  int64   // InstanceResult.TotalBits
	// Per-phase model times: Phase1Time, EqualityTime, FlagTime.
	phase1, equality, flags float64
}

// client is the closed-loop load generator over one session: a single
// submitter goroutine keeps `window` payloads outstanding, and a single
// reader goroutine consumes commits, checks them and frees a slot per
// commit.
type client struct {
	sess     *nab.Session
	seed     int64
	lenBytes int
	nodes    int

	slots chan struct{} // one token per outstanding payload
	quit  chan struct{} // closed to stop the submitter
	subWG sync.WaitGroup
	readC chan struct{} // closed when the reader has finished

	mu       sync.Mutex
	cond     *sync.Cond
	next     int // next sequence number to submit
	stopAt   int // the submitter pauses before submitting beyond it
	stopped  bool
	start    []time.Time     // start[seq]: when Submit was called
	blocked  []time.Duration // blocked[seq]: how long Submit took
	recs     []commitRec
	first    *nab.InstanceResult // the first commit's result
	errs     []string            // correctness violations and failed calls
	failed   int                 // failed Submit calls + commits failing the gate
	attempts int                 // Submit calls made
	ended    bool                // the commit stream closed
}

const unbounded = int(^uint(0) >> 1)

func newClient(sess *nab.Session, seed int64, lenBytes, nodes int) *client {
	d := &client{
		sess: sess, seed: seed, lenBytes: lenBytes, nodes: nodes,
		slots:  make(chan struct{}, window),
		quit:   make(chan struct{}),
		readC:  make(chan struct{}),
		next:   1,
		stopAt: unbounded,
		// Index 0 is unused: sequence numbers start at 1.
		start:   []time.Time{{}},
		blocked: []time.Duration{0},
	}
	d.cond = sync.NewCond(&d.mu)
	for i := 0; i < window; i++ {
		d.slots <- struct{}{}
	}
	d.subWG.Add(1)
	go d.submitter()
	go d.reader()
	return d
}

// fail records a violation; d.mu must be held.
func (d *client) fail(format string, args ...any) {
	d.failed++
	if len(d.errs) < 8 {
		d.errs = append(d.errs, fmt.Sprintf(format, args...))
	}
}

func (d *client) submitter() {
	defer d.subWG.Done()
	for {
		select {
		case <-d.slots:
		case <-d.quit:
			return
		}
		d.mu.Lock()
		for d.next > d.stopAt && !d.stopped {
			d.cond.Wait()
		}
		if d.stopped {
			d.mu.Unlock()
			return
		}
		seq := d.next
		d.next++
		d.attempts++
		d.mu.Unlock()

		p := payload(d.seed, seq, d.lenBytes)
		t0 := time.Now()
		d.mu.Lock()
		d.start = append(d.start, t0)
		d.blocked = append(d.blocked, 0)
		d.mu.Unlock()
		got, err := d.sess.Submit(context.Background(), p)
		blk := time.Since(t0)
		if err == nil && int(got) != seq {
			err = fmt.Errorf("session assigned seq %d", got)
		}
		d.mu.Lock()
		d.blocked[seq] = blk
		if err != nil {
			d.fail("submit %d: %v", seq, err)
			d.stopped = true
		}
		d.mu.Unlock()
		if err != nil {
			return
		}
	}
}

// reader consumes the commit stream: every commit must arrive in Seq
// order and carry the submitted payload as every node's output.
func (d *client) reader() {
	defer close(d.readC)
	want := 1
	for c := range d.sess.Commits() {
		now, cpu := time.Now(), cpuTime()
		seq := int(c.Seq)
		ir := c.Result
		var bad string
		switch {
		case seq != want:
			bad = fmt.Sprintf("commit seq %d, want %d", seq, want)
		case c.Replayed:
			bad = fmt.Sprintf("commit %d replayed in a fresh session", seq)
		case ir == nil:
			bad = fmt.Sprintf("commit %d without a result", seq)
		case len(ir.Outputs) != d.nodes:
			bad = fmt.Sprintf("commit %d: outputs from %d of %d nodes", seq, len(ir.Outputs), d.nodes)
		default:
			p := payload(d.seed, seq, d.lenBytes)
			for v, out := range ir.Outputs {
				if !bytes.Equal(out, p) {
					bad = fmt.Sprintf("commit %d: node %d output differs from the payload", seq, v)
					break
				}
			}
		}
		want = seq + 1
		d.mu.Lock()
		if bad != "" {
			d.fail("%s", bad)
		}
		rec := commitRec{seq: seq, recv: now, cpu: cpu}
		if seq > 0 && seq < len(d.start) {
			rec.lat = now.Sub(d.start[seq])
		}
		if ir != nil {
			rec.model = ir.TotalTime()
			rec.bits = ir.TotalBits
			rec.phase1, rec.equality, rec.flags = ir.Phase1Time, ir.EqualityTime, ir.FlagTime
			if d.first == nil {
				d.first = ir
			}
		}
		d.recs = append(d.recs, rec)
		d.cond.Broadcast()
		d.mu.Unlock()
		d.slots <- struct{}{}
	}
	d.mu.Lock()
	d.ended = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

// committed returns how many commits the reader has seen.
func (d *client) committed() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.recs)
}

// awaitCommitted blocks until n commits are in, the stream ended or a
// violation was found; it reports whether n commits are in.
func (d *client) awaitCommitted(n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.recs) < n && !d.ended && d.failed == 0 {
		d.cond.Wait()
	}
	return len(d.recs) >= n
}

// pause stops submitting and waits until everything submitted has
// committed: a quiescent point where no instance is in flight. It
// returns the number of commits at that point.
func (d *client) pause() (int, bool) {
	d.mu.Lock()
	d.stopAt = d.next - 1
	n := d.stopAt
	d.mu.Unlock()
	return n, d.awaitCommitted(n)
}

// resume lets the submitter run without a limit again.
func (d *client) resume() {
	d.mu.Lock()
	d.stopAt = unbounded
	d.cond.Broadcast()
	d.mu.Unlock()
}

// finish stops the submitter, drains the session and closes it; a
// failed drain or close, or a payload accepted but never committed,
// counts as a failure.
func (d *client) finish() {
	d.mu.Lock()
	d.stopped = true
	d.cond.Broadcast()
	d.mu.Unlock()
	close(d.quit)
	d.subWG.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	derr := d.sess.Drain(ctx)
	cerr := d.sess.Close()
	<-d.readC
	d.mu.Lock()
	defer d.mu.Unlock()
	if derr != nil {
		d.fail("drain: %v", derr)
	}
	if cerr != nil {
		d.fail("close: %v", cerr)
	}
	if len(d.recs) != d.next-1 {
		d.fail("%d payloads accepted, %d committed", d.next-1, len(d.recs))
	}
}

// between returns the commits received in [t0, t1].
func (d *client) between(t0, t1 time.Time) []commitRec {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []commitRec
	for _, r := range d.recs {
		if !r.recv.Before(t0) && !r.recv.After(t1) {
			out = append(out, r)
		}
	}
	return out
}

// bitsDigest summarizes the per-instance TotalBits of the first n
// commits: equal digests mean equal charged bits instance by instance.
func (d *client) bitsDigest(n int) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return bitsDigestOf(d.recs, n)
}

// bitsDigestOf is bitsDigest over a commit list.
func bitsDigestOf(recs []commitRec, n int) string {
	if len(recs) < n {
		n = len(recs)
	}
	var sb bytes.Buffer
	for _, r := range recs[:n] {
		fmt.Fprintf(&sb, "%d:%d;", r.seq, r.bits)
	}
	return sb.String()
}
