package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"nab"
	"nab/internal/transport"
)

// window is the closed loop's outstanding-payload count, equal to the
// pipelined engine's in-flight window W.
const window = 4

// workload is one fixed configuration of the system driven through the
// public Session API.
type workload struct {
	name     string
	graph    func() (*nab.Graph, error)
	f        int
	lenBytes int
	lockstep bool
	tcp      bool
	wal      bool
	// timeUnit paces the in-process bus (0: unpaced).
	timeUnit time.Duration
}

var workloads = []workload{
	{
		// The oracle re-plans every instance: planning dominates.
		name: "lockstep-thin7-64B",
		graph: func() (*nab.Graph, error) {
			return nab.OneThinLinkGraph(7, 2, 3, 8, 1)
		},
		f: 1, lenBytes: 64, lockstep: true,
	},
	{
		// Fixed per-instance costs: EIG flags, TCP framing, one fsync
		// per submit.
		name:  "pipelined-k7-64B-tcp-wal",
		graph: func() (*nab.Graph, error) { return nab.CompleteGraph(7, 1), nil },
		f:     2, lenBytes: 64, tcp: true, wal: true,
	},
	{
		// Link-bound: the paper's share of the Theorem 2 bound.
		name: "paced-circ9-8KiB",
		graph: func() (*nab.Graph, error) {
			return nab.CirculantGraph(9, 1, 1, 2)
		},
		f: 1, lenBytes: 8192, timeUnit: time.Microsecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// boundUnit is the real time of one model time unit used for bound_frac:
// the paced workload's TimeUnit, and the same nominal 1µs on unpaced
// workloads, where bound_frac is then inst_per_s on the bound's scale.
func (w *workload) boundUnit() time.Duration {
	if w.timeUnit > 0 {
		return w.timeUnit
	}
	return time.Microsecond
}

// session is one open Session plus what the benchmark built around it.
type session struct {
	sess   *nab.Session
	walDir string
	// tr is the counting wrapper in traced runs on an engine with a
	// transport; nil otherwise.
	tr *countingTransport
}

// openOpts selects how a session is opened.
type openOpts struct {
	// traced wraps the transport in a countingTransport.
	traced bool
	// flightCap > 0 arms the flight recorder with that many events.
	flightCap int
	// recoverDir reopens an existing log instead of creating one.
	recoverDir string
}

// open builds the workload's transport and opens a session over it. A
// durable workload gets a fresh log directory under workdir unless
// o.recoverDir names one to recover.
func (w *workload) open(ctx context.Context, g *nab.Graph, seed int64, workdir string, o openOpts) (*session, error) {
	cfg := nab.Config{Graph: g, Source: 1, F: w.f, LenBytes: w.lenBytes, Seed: seed}
	var opts []nab.SessionOption
	s := &session{}
	var tr nab.Transport
	switch {
	case w.lockstep:
		opts = append(opts, nab.WithLockstep())
	case w.tcp:
		t, err := nab.NewTCPTransport(g)
		if err != nil {
			return nil, err
		}
		tr = t
	case o.traced:
		// The traced run needs the bus itself to wrap it; this is the
		// bus the engine builds from WithTransportOptions.
		tr = transport.NewChan(g, transport.ChanOptions{TimeUnit: w.timeUnit})
	default:
		opts = append(opts, nab.WithTransportOptions(nab.TransportOptions{TimeUnit: w.timeUnit}))
	}
	if !w.lockstep {
		opts = append(opts, nab.WithWindow(window))
	}
	if tr != nil {
		if o.traced {
			s.tr = newCountingTransport(tr, g)
			tr = s.tr
		}
		opts = append(opts, nab.WithTransport(tr))
	}
	switch {
	case o.recoverDir != "":
		s.walDir = o.recoverDir
		opts = append(opts, nab.Recover(o.recoverDir))
	case w.wal:
		dir, err := os.MkdirTemp(workdir, "wal-")
		if err != nil {
			if tr != nil {
				tr.Close()
			}
			return nil, err
		}
		s.walDir = dir
		opts = append(opts, nab.WithDurability(dir))
	}
	if o.flightCap > 0 {
		opts = append(opts, nab.WithFlightRecorder(o.flightCap))
	}
	sess, err := nab.Open(ctx, cfg, opts...)
	if err != nil {
		s.removeWAL()
		return nil, fmt.Errorf("open %s: %w", w.name, err)
	}
	s.sess = sess
	return s, nil
}

// removeWAL deletes the session's log directory, if any.
func (s *session) removeWAL() {
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
}
