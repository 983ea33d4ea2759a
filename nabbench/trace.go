package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"nab"
	"nab/internal/coding"
	"nab/internal/core"
	"nab/internal/dispute"
	"nab/internal/flight"
	"nab/internal/gf"
	"nab/internal/spantree"
)

// flightCap is the traced run's flight-recorder ring (events). The
// traced window ends early when it would overrun the ring, so every
// event of the window survives (checked: no Seq gap).
const flightCap = 1 << 19

// traceSnap is the state read at one quiescent boundary of the traced
// window.
type traceSnap struct {
	at      time.Time
	commits int
	seq     uint64 // flight recorder Total: the next event's Seq
	reg     promSnapshot
	data    int64
	markers int64
	bits    int64
	idleNS  int64
}

// quiesce pauses the client until nothing is in flight, waits for the
// transport to fall silent, and snapshots every counter the per-layer
// split reads.
func (b *bench) quiesce(s *session, d *client) (traceSnap, error) {
	n, ok := d.pause()
	if !ok {
		return traceSnap{}, fmt.Errorf("stream ended before %d commits", n)
	}
	rec := flight.Default()
	// Trailing frames (end-of-step markers) may follow the last commit;
	// wait until three consecutive reads agree.
	last, stable := [4]int64{-1}, 0
	for i := 0; i < 200 && stable < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		cur := [4]int64{int64(rec.Total())}
		if s.tr != nil {
			cur[1], cur[2], cur[3] = s.tr.data.Load(), s.tr.markers.Load(), s.tr.linkBits()
		}
		if cur == last {
			stable++
		} else {
			stable = 0
		}
		last = cur
	}
	snap := traceSnap{at: time.Now(), commits: n, seq: rec.Total(), reg: readRegistry()}
	if s.tr != nil {
		snap.data, snap.markers = s.tr.data.Load(), s.tr.markers.Load()
		snap.bits, snap.idleNS = s.tr.linkBits(), s.tr.idleNS()
	}
	return snap, nil
}

// traced is the --trace 1 run: an untraced reference window, then a
// traced window between two quiescent points, then the WAL recovery and
// the direct planning and kernel calls.
func (b *bench) traced(span time.Duration) (*outcome, map[string]any) {
	ctx := context.Background()
	half := span / 2
	m := map[string]metric{}
	extra := map[string]any{}

	ref, digest, err := b.window(ctx, half, 1, 1)
	if err != nil {
		b.tally.violation("reference window: %v", err)
		return b.verdict(nil), extra
	}
	refRate, _ := rates(ref.commits)
	refLat := make([]float64, 0, len(ref.commits))
	for _, r := range ref.commits {
		refLat = append(refLat, ms(r.lat))
	}
	refP50, _ := percentile(refLat, 0.5)
	m["go.allocs_per_inst"] = metric{ref.goAllocs, "count"}
	m["go.alloc_bytes_per_inst"] = metric{ref.goBytes, "B"}
	m["go.gc_cpu_frac"] = metric{ref.gcCPUFrac, "ratio"}

	s, d, _, err := b.openTimed(ctx, openOpts{traced: true, flightCap: flightCap})
	if err != nil {
		if d != nil {
			b.close(s, d)
		}
		b.tally.violation("traced session: %v", err)
		return b.verdict(nil), extra
	}
	rec := flight.Default()
	time.Sleep(warmup)
	// Stop the window while the ring still has room for the instances
	// in flight when it pauses, with margin.
	perCommit := int(rec.Total()) / max(d.committed(), 1)
	budget := uint64(max(flightCap-8*perCommit, 0))
	a, err := b.quiesce(s, d)
	if err == nil {
		if s.tr != nil {
			s.tr.arm()
		}
		d.resume()
		for time.Since(a.at) < half && rec.Total()-a.seq < budget {
			time.Sleep(5 * time.Millisecond)
		}
	}
	var z traceSnap
	if err == nil {
		z, err = b.quiesce(s, d)
	}
	var sends []float64
	if s.tr != nil {
		sends = s.tr.disarm()
	}
	events := rec.Events()
	rec.Disable()
	d.mu.Lock()
	recs := append([]commitRec(nil), d.recs...)
	blocked := append([]time.Duration(nil), d.blocked...)
	first := d.first
	d.mu.Unlock()
	d.finish()
	b.tally.absorb(d)
	if err != nil {
		s.removeWAL()
		b.tally.violation("traced window: %v", err)
		return b.verdict(nil), extra
	}
	b.compareDigest(&digest, bitsDigestOf(recs, digestCommits))

	win := recs[a.commits:z.commits]
	n := len(win)
	if n == 0 {
		s.removeWAL()
		b.tally.violation("traced window committed nothing")
		return b.verdict(nil), extra
	}
	wall := win[n-1].recv.Sub(a.at)
	tracedRate := float64(n) / wall.Seconds()
	m["trace_overhead_frac"] = metric{1 - tracedRate/refRate, "ratio"}

	// Flight spans: every event of the window must have survived.
	var inWin []flight.Event
	for _, ev := range events {
		if ev.Seq >= a.seq && ev.Seq < z.seq {
			inWin = append(inWin, ev)
		}
	}
	if uint64(len(inWin)) != z.seq-a.seq {
		b.tally.violation("flight ring lost events: %d of %d in the traced window survived", len(inWin), z.seq-a.seq)
	}
	spans, launches := phaseSpans(inWin)
	var sum float64
	for _, p := range []string{"launch", "phase1", "equality", "flags", "claims"} {
		v := median(spans[p])
		if p != "claims" {
			m["phase."+p+"_ms"] = metric{v, "ms"}
		}
		sum += v
	}
	m["phase.sum_ms"] = metric{sum, "ms"}
	m["runtime.useful_launch_frac"] = metric{safeDiv(float64(n), float64(launches)), "ratio"}

	var p1, eq, fl exactSum
	for _, r := range win {
		p1.add(r.phase1)
		eq.add(r.equality)
		fl.add(r.flags)
	}
	m["model.phase1_tu_per_inst"] = metric{p1.mean(n), "tu"}
	m["model.equality_tu_per_inst"] = metric{eq.mean(n), "tu"}
	m["model.flag_tu_per_inst"] = metric{fl.mean(n), "tu"}

	reg := func(name string) float64 { return delta(a.reg, z.reg, name) }
	m["runtime.launch_to_commit_ms"] = metric{1e3 * safeDiv(reg("nab_runtime_commit_latency_seconds_sum"), reg("nab_runtime_commit_latency_seconds_count")), "ms"}
	m["runtime.barriers_per_inst"] = metric{perInst(reg("nab_runtime_barriers_total"), n), "count"}
	m["transport.frames_per_flush"] = metric{safeDiv(reg("nab_transport_writer_frames_total"), reg("nab_transport_flushes_total")), "count"}
	m["transport.pacer_stall_ms_per_inst"] = metric{1e3 * perInst(reg("nab_transport_pacer_stall_seconds_sum"), n), "ms"}
	m["wal.fsyncs_per_inst"] = metric{perInst(reg("nab_wal_fsync_seconds_count"), n), "count"}
	m["wal.fsync_ms"] = metric{1e3 * safeDiv(reg("nab_wal_fsync_seconds_sum"), reg("nab_wal_fsync_seconds_count")), "ms"}
	m["wal.records_per_fsync"] = metric{safeDiv(reg("nab_wal_fsync_batch_records_sum"), reg("nab_wal_fsync_batch_records_count")), "count"}
	m["wal.bytes_per_inst"] = metric{perInst(reg("nab_wal_append_bytes_total"), n), "B"}

	m["transport.data_frames_per_inst"] = metric{perInst(float64(z.data-a.data), n), "count"}
	m["transport.markers_per_inst"] = metric{perInst(float64(z.markers-a.markers), n), "count"}
	m["transport.bits_per_inst"] = metric{perInst(float64(z.bits-a.bits), n), "bit"}
	m["transport.send_us"] = metric{median(sends), "us"}
	idleFrac := 0.0
	if s.tr != nil {
		idleFrac = float64(z.idleNS-a.idleNS) / (float64(len(s.tr.recv)) * float64(z.at.Sub(a.at)))
	}
	m["transport.recv_idle_frac"] = metric{idleFrac, "ratio"}

	var blk []float64
	for seq := a.commits + 1; seq <= z.commits && seq < len(blocked); seq++ {
		blk = append(blk, ms(blocked[seq]))
	}
	m["session.submit_block_ms"] = metric{median(blk), "ms"}

	recoverMS := 0.0
	if s.walDir != "" {
		recoverMS = b.recoverTime(ctx, s.walDir, z.commits)
		s.removeWAL()
	}
	m["wal.recover_ms"] = metric{recoverMS, "ms"}

	for k, v := range b.layerCalls(first) {
		m[k] = v
	}

	extra["untraced_inst_per_s"] = refRate
	extra["untraced_steal_frac"] = ref.stealFrac
	extra["traced_inst_per_s"] = tracedRate
	extra["traced_commits"] = n
	extra["untraced_commit_p50_ms"] = refP50
	extra["accounting"] = fmt.Sprintf("launch->commit phase spans sum to %.3f ms; untraced commit_p50 %.3f ms; "+
		"%.3f ms outside the spans (queued before launch, delivered after commit); trace overhead %.3f",
		sum, refP50, refP50-sum, 1-tracedRate/refRate)
	extra["bits_digest"] = digest
	return b.verdict(m), extra
}

// phaseSpans turns the window's launch/phase/commit events into
// per-instance phase durations (ms), keyed launch, phase1, equality,
// flags and claims: a phase ends where the next one, or the commit,
// begins. It also returns the number of launches.
func phaseSpans(events []flight.Event) (map[string][]float64, int) {
	type inst struct {
		at     [flight.PhaseClaims + 1]int64 // by phase code; launch is PhaseLaunch
		commit int64
	}
	byK := map[int32]*inst{}
	get := func(k int32) *inst {
		in := byK[k]
		if in == nil {
			in = &inst{}
			byK[k] = in
		}
		return in
	}
	launches := 0
	for _, ev := range events {
		switch ev.Type {
		case flight.EvLaunch:
			launches++
			if in := get(ev.K); in.at[flight.PhaseLaunch] == 0 {
				in.at[flight.PhaseLaunch] = ev.TS
			}
		case flight.EvPhase:
			if ev.Step <= flight.PhaseClaims {
				if in := get(ev.K); in.at[ev.Step] == 0 {
					in.at[ev.Step] = ev.TS
				}
			}
		case flight.EvCommit:
			if in := get(ev.K); in.commit == 0 {
				in.commit = ev.TS
			}
		}
	}
	spans := map[string][]float64{}
	for _, in := range byK {
		if in.at[flight.PhaseLaunch] == 0 || in.commit == 0 {
			continue
		}
		for c := flight.PhaseLaunch; c <= flight.PhaseClaims; c++ {
			if in.at[c] == 0 {
				continue
			}
			end := in.commit
			for nx := c + 1; nx <= flight.PhaseClaims; nx++ {
				if in.at[nx] != 0 {
					end = in.at[nx]
					break
				}
			}
			spans[flight.PhaseName(c)] = append(spans[flight.PhaseName(c)], float64(end-in.at[c])/1e6)
		}
	}
	return spans, launches
}

// recoverTime reopens the traced session's log and times Open until
// every replayed commit has been delivered and the stream has ended.
func (b *bench) recoverTime(ctx context.Context, dir string, committed int) float64 {
	t0 := time.Now()
	s, err := b.w.open(ctx, b.g, b.seed, b.workdir, openOpts{recoverDir: dir})
	if err != nil {
		b.tally.violation("recover: %v", err)
		return 0
	}
	done := make(chan error, 1)
	go func() { done <- s.sess.Drain(ctx) }()
	last, replayed := 0, 0
	for c := range s.sess.Commits() {
		if !c.Replayed || (last != 0 && int(c.Seq) != last+1) {
			b.tally.violation("recover: commit %d out of order or not replayed", c.Seq)
		}
		last = int(c.Seq)
		replayed++
	}
	elapsed := time.Since(t0)
	if err := <-done; err != nil {
		b.tally.violation("recover: drain: %v", err)
	}
	if err := s.sess.Close(); err != nil {
		b.tally.violation("recover: close: %v", err)
	}
	if replayed == 0 || last != committed {
		b.tally.violation("recover: replayed %d commits ending at %d, want the log's last commit %d", replayed, last, committed)
	}
	return ms(elapsed)
}

// layerCalls times the planning and kernel layers directly, on the
// workload graph and with the instance parameters of ir.
func (b *bench) layerCalls(ir *nab.InstanceResult) map[string]metric {
	m := map[string]metric{}
	g := b.g
	proto, err := core.NewProtocol(core.Config{Graph: g, Source: 1, F: b.w.f, LenBytes: b.w.lenBytes, Seed: b.seed})
	if err != nil {
		b.tally.violation("protocol: %v", err)
		return m
	}
	rng := rand.New(rand.NewSource(b.seed))
	m["core.plan_ms"] = metric{b.repeatMS(func() (time.Duration, error) {
		ds := core.NewDisputeState(g)
		t0 := time.Now()
		_, err := proto.PlanInstance(ds, 1, rng)
		return time.Since(t0), err
	}), "ms"}

	field, err := gf.New(ir.SymBits)
	if err != nil {
		b.tally.violation("field: %v", err)
		return m
	}
	omega := dispute.Omega(g, dispute.NewSet(), g.NumNodes()-b.w.f)
	var scheme *coding.Scheme
	m["coding.verify_ms"] = metric{b.repeatMS(func() (time.Duration, error) {
		t0 := time.Now()
		sc, _, err := coding.GenerateVerified(g, ir.Rho, field, omega, rng, 64)
		scheme = sc
		return time.Since(t0), err
	}), "ms"}
	m["spantree.pack_ms"] = metric{b.repeatMS(func() (time.Duration, error) {
		t0 := time.Now()
		_, err := spantree.PackArborescences(g, 1, int(ir.Gamma))
		return time.Since(t0), err
	}), "ms"}
	if scheme == nil {
		return m
	}

	x := make([]gf.Elem, ir.Rho)
	for i := range x {
		x[i] = rng.Uint64() & field.Mask()
	}
	dst := make([]gf.Elem, scheme.MaxCap())
	buf := make([]gf.Elem, scheme.MaxCap())
	edges := g.Edges()
	m["coding.eq_kernel_us_per_inst"] = metric{1e3 * b.repeatMS(func() (time.Duration, error) {
		t0 := time.Now()
		for _, e := range edges {
			cols := scheme.EdgeMatrix(e.From, e.To).Cols()
			for s := 0; s < ir.Stripes; s++ {
				if err := scheme.EncodeInto(e.From, e.To, x, dst[:cols]); err != nil {
					return 0, err
				}
				mm, err := scheme.CheckInto(e.From, e.To, x, dst[:cols], buf)
				if err != nil {
					return 0, err
				}
				if mm {
					return 0, fmt.Errorf("equality check of edge (%d,%d) mismatched its own encoding", e.From, e.To)
				}
			}
		}
		return time.Since(t0), nil
	}), "us"}
	return m
}

// repeatMS calls fn until it has run at least 5 times and 300ms have
// passed (at most 41 times) and returns the median of the durations fn
// measured, in ms. fn times only the layer call, not its set-up.
func (b *bench) repeatMS(fn func() (time.Duration, error)) float64 {
	var ds []float64
	start := time.Now()
	for len(ds) < 41 && (len(ds) < 5 || time.Since(start) < 300*time.Millisecond) {
		d, err := fn()
		if err != nil {
			b.tally.violation("layer call: %v", err)
			return 0
		}
		ds = append(ds, ms(d))
	}
	return median(ds)
}
