// Pipelined runtime: broadcast a stream of values with 4 instances in
// flight on the concurrent actor engine, then compare the measured rate
// and the aggregate model accounting against the lockstep engine and the
// paper's capacity bounds. Both engines run behind the same streaming
// Session API; the lockstep run doubles as the byte-identity oracle.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"nab"
)

const timeUnit = time.Millisecond

func main() {
	g := nab.CompleteGraph(7, 1) // K7, unit capacities
	cfg := nab.Config{Graph: g, Source: 1, F: 2, LenBytes: 64}

	const q = 32
	inputs := make([][]byte, q)
	for i := range inputs {
		inputs[i] = make([]byte, cfg.LenBytes)
		copy(inputs[i], fmt.Sprintf("pipelined broadcast #%02d", i+1))
	}

	// One engine at a time behind the same Session shape: submit the
	// stream, drain, keep the aggregate result.
	run := func(opts ...nab.SessionOption) *nab.PipelineResult {
		ctx := context.Background()
		sess, err := nab.Open(ctx, cfg, opts...)
		if err != nil {
			log.Fatal(err)
		}
		defer sess.Close()
		go func() {
			for _, in := range inputs {
				if _, err := sess.Submit(ctx, in); err != nil {
					return
				}
			}
			sess.Drain(ctx)
		}()
		for range sess.Commits() {
		}
		if err := sess.Err(); err != nil {
			log.Fatal(err)
		}
		return sess.Result()
	}

	// Lockstep baseline: one instance at a time on the simulator.
	lockRes := run(nab.WithLockstep())

	// Concurrent engine: per-node actors over an in-process message bus,
	// 4 instances in flight, one plan per dispute generation (as lockstep).
	pipeRes := run(nab.WithWindow(4))

	fmt.Printf("lockstep:  %d instances in %v (%.1f/s)\n",
		len(lockRes.Instances), lockRes.Wall.Round(timeUnit), lockRes.InstancesPerSec())
	fmt.Printf("pipelined: %d instances in %v (%.1f/s, window %d)\n\n",
		len(pipeRes.Instances), pipeRes.Wall.Round(timeUnit), pipeRes.InstancesPerSec(), pipeRes.Window)

	capRep, err := nab.AnalyzeCapacity(g, 1, 2, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(nab.NewPipelineReport(g, pipeRes, capRep))
}
