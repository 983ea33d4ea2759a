package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"nab/internal/adversary"
	"nab/internal/core"
	"nab/internal/graph"
	"nab/internal/topo"
)

// baseConfig uses K4: with n=4 and f=1 the paper requires vertex
// connectivity >= 2f+1 = 3, which the Figure 1(a) example graph (used in
// the paper only to illustrate mincut quantities) does not satisfy.
func baseConfig(advs map[graph.NodeID]core.Adversary) core.Config {
	return core.Config{
		Graph:       topo.CompleteBi(4, 1),
		Source:      1,
		F:           1,
		LenBytes:    4,
		Seed:        42,
		Adversaries: advs,
	}
}

func input4(b byte) []byte { return []byte{b, b + 1, b + 2, b + 3} }

func checkAgreement(t *testing.T, ir *core.InstanceResult) []byte {
	t.Helper()
	var agreed []byte
	first := true
	for v, out := range ir.Outputs {
		if first {
			agreed = out
			first = false
			continue
		}
		if !bytes.Equal(agreed, out) {
			t.Fatalf("agreement violated: node %d has %x, others %x", v, out, agreed)
		}
	}
	if first {
		t.Fatal("no outputs recorded")
	}
	return agreed
}

func TestNewRunnerValidation(t *testing.T) {
	good := baseConfig(nil)
	if _, err := core.NewRunner(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Graph = nil
	if _, err := core.NewRunner(bad); err == nil {
		t.Error("nil graph accepted")
	}
	bad = good
	bad.F = 2 // n=4 < 3*2+1
	if _, err := core.NewRunner(bad); err == nil {
		t.Error("n < 3f+1 accepted")
	}
	bad = good
	bad.Source = 99
	if _, err := core.NewRunner(bad); err == nil {
		t.Error("missing source accepted")
	}
	bad = good
	bad.LenBytes = 0
	if _, err := core.NewRunner(bad); err == nil {
		t.Error("LenBytes=0 accepted")
	}
	bad = good
	bad.Adversaries = map[graph.NodeID]core.Adversary{2: core.Honest{}, 3: core.Honest{}}
	if _, err := core.NewRunner(bad); err == nil {
		t.Error("more adversaries than f accepted")
	}
	// Connectivity below 2f+1: a 4-cycle has connectivity 2 < 3.
	ring := graph.NewDirected()
	for i := 1; i <= 4; i++ {
		next := graph.NodeID(i%4 + 1)
		if err := ring.AddBiEdge(graph.NodeID(i), next, 1); err != nil {
			t.Fatal(err)
		}
	}
	bad = good
	bad.Graph = ring
	if _, err := core.NewRunner(bad); err == nil {
		t.Error("insufficient connectivity accepted")
	}
}

func TestFaultFreeValidity(t *testing.T) {
	r, err := core.NewRunner(baseConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	in := input4(10)
	ir, err := r.RunInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if ir.Mismatch || ir.Phase3 {
		t.Errorf("fault-free run triggered mismatch=%v phase3=%v", ir.Mismatch, ir.Phase3)
	}
	agreed := checkAgreement(t, ir)
	if !bytes.Equal(agreed, in) {
		t.Errorf("validity violated: got %x want %x", agreed, in)
	}
	if len(ir.Outputs) != 4 {
		t.Errorf("outputs for %d nodes, want 4", len(ir.Outputs))
	}
}

func TestFaultFreeTimingMatchesPaper(t *testing.T) {
	// K4 unit capacities: gamma=3; U1=4 (undirected triangle subgraphs at
	// capacity 2 per pair), so rho=2. L = 32 bits. Phase 1 splits into
	// blocks of 10/11/11 bits -> 11 cut-through time units (~L/gamma); the
	// equality check costs L/rho = 16.
	r, err := core.NewRunner(baseConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	ir, err := r.RunInstance(input4(1))
	if err != nil {
		t.Fatal(err)
	}
	if ir.Gamma != 3 || ir.Rho != 2 {
		t.Fatalf("gamma=%d rho=%d, want 3 and 2", ir.Gamma, ir.Rho)
	}
	if ir.Phase1Time != 11 {
		t.Errorf("Phase1Time = %v, want ceil-split L/gamma = 11", ir.Phase1Time)
	}
	if ir.EqualityTime != 16 {
		t.Errorf("EqualityTime = %v, want L/rho = 16", ir.EqualityTime)
	}
	if ir.SymBits != 16 {
		t.Errorf("SymBits = %d, want 16", ir.SymBits)
	}
	// Flag broadcast cost is constant in L (amortizes away).
	if ir.FlagTime <= 0 {
		t.Errorf("FlagTime = %v, want positive", ir.FlagTime)
	}
}

func TestPhase1CorruptionTriggersDisputeControl(t *testing.T) {
	// Node 3 flips every block it forwards. Some honest node must detect
	// the mismatch, Phase 3 must run, and outputs must still satisfy
	// agreement AND validity (source is honest).
	advs := map[graph.NodeID]core.Adversary{3: &adversary.BlockFlipper{}}
	r, err := core.NewRunner(baseConfig(advs))
	if err != nil {
		t.Fatal(err)
	}
	in := input4(77)
	ir, err := r.RunInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ir.Mismatch || !ir.Phase3 {
		t.Fatalf("corruption not detected: mismatch=%v phase3=%v", ir.Mismatch, ir.Phase3)
	}
	agreed := checkAgreement(t, ir)
	if !bytes.Equal(agreed, in) {
		t.Errorf("validity violated after dispute control: got %x want %x", agreed, in)
	}
	// Progress: a new dispute or faulty node involving node 3.
	touches3 := false
	for _, d := range ir.NewDisputes {
		if d[0] == 3 || d[1] == 3 {
			touches3 = true
		}
	}
	for _, v := range ir.NewFaulty {
		if v == 3 {
			touches3 = true
		}
		// An honest node must never be identified as faulty.
		if v != 3 {
			t.Errorf("honest node %d declared faulty", v)
		}
	}
	if !touches3 {
		t.Errorf("findings do not involve the culprit: disputes=%v faulty=%v", ir.NewDisputes, ir.NewFaulty)
	}
	// Honest pairs never dispute.
	for _, d := range ir.NewDisputes {
		if d[0] != 3 && d[1] != 3 {
			t.Errorf("honest pair in dispute: %v", d)
		}
	}
}

func TestEquivocatingSourceAgreement(t *testing.T) {
	// The source equivocates in Phase 1 (different blocks to different
	// children). Agreement must still hold; validity is not required since
	// the source is faulty.
	advs := map[graph.NodeID]core.Adversary{1: &adversary.BlockFlipper{Victims: map[graph.NodeID]bool{2: true}}}
	r, err := core.NewRunner(baseConfig(advs))
	if err != nil {
		t.Fatal(err)
	}
	ir, err := r.RunInstance(input4(5))
	if err != nil {
		t.Fatal(err)
	}
	if !ir.Mismatch || !ir.Phase3 {
		t.Fatalf("equivocation not detected: mismatch=%v phase3=%v", ir.Mismatch, ir.Phase3)
	}
	checkAgreement(t, ir)
	for _, v := range ir.NewFaulty {
		if v != 1 {
			t.Errorf("honest node %d declared faulty", v)
		}
	}
	for _, d := range ir.NewDisputes {
		if d[0] != 1 && d[1] != 1 {
			t.Errorf("honest pair in dispute: %v", d)
		}
	}
}

func TestCodedCorruptionDetected(t *testing.T) {
	advs := map[graph.NodeID]core.Adversary{4: &adversary.CodedCorruptor{}}
	r, err := core.NewRunner(baseConfig(advs))
	if err != nil {
		t.Fatal(err)
	}
	in := input4(9)
	ir, err := r.RunInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1 was clean, so values agree; the corrupted equality check
	// must still trigger dispute control and preserve validity.
	if !ir.Phase3 {
		t.Fatal("coded corruption did not trigger dispute control")
	}
	agreed := checkAgreement(t, ir)
	if !bytes.Equal(agreed, in) {
		t.Errorf("validity violated: got %x want %x", agreed, in)
	}
}

func TestFalseAlarmIdentified(t *testing.T) {
	// A faulty node cries MISMATCH on a clean instance: Phase 3 runs, the
	// audit must identify it (announced flag contradicts its own claims),
	// and validity holds.
	advs := map[graph.NodeID]core.Adversary{2: adversary.FalseAlarm{}}
	r, err := core.NewRunner(baseConfig(advs))
	if err != nil {
		t.Fatal(err)
	}
	in := input4(30)
	ir, err := r.RunInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ir.Phase3 {
		t.Fatal("false alarm did not trigger phase 3")
	}
	agreed := checkAgreement(t, ir)
	if !bytes.Equal(agreed, in) {
		t.Errorf("validity violated: got %x want %x", agreed, in)
	}
	if len(ir.NewFaulty) != 1 || ir.NewFaulty[0] != 2 {
		t.Errorf("false alarmist not identified: faulty=%v disputes=%v", ir.NewFaulty, ir.NewDisputes)
	}
	// Next instance should run without node 2.
	ir2, err := r.RunInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if ir2.ExcludedNodes != 1 {
		t.Errorf("excluded = %d, want 1", ir2.ExcludedNodes)
	}
	if !ir2.Phase1Only {
		t.Error("with f nodes excluded the instance should be Phase-1-only")
	}
	agreed2 := checkAgreement(t, ir2)
	if !bytes.Equal(agreed2, in) {
		t.Errorf("post-exclusion validity violated: got %x", agreed2)
	}
}

func TestCrashAdversary(t *testing.T) {
	advs := map[graph.NodeID]core.Adversary{4: adversary.Crash{}}
	r, err := core.NewRunner(baseConfig(advs))
	if err != nil {
		t.Fatal(err)
	}
	in := input4(60)
	ir, err := r.RunInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	// Node 4's silence in phase 1 gives downstream nodes default blocks ->
	// mismatch -> dispute control; validity must hold.
	agreed := checkAgreement(t, ir)
	if !bytes.Equal(agreed, in) {
		t.Errorf("validity violated: got %x want %x", agreed, in)
	}
	for _, v := range ir.NewFaulty {
		if v != 4 {
			t.Errorf("honest node %d declared faulty", v)
		}
	}
}

func TestMuteClaimsIdentified(t *testing.T) {
	// Corrupt phase 1, then refuse to broadcast claims: instant
	// identification.
	advs := map[graph.NodeID]core.Adversary{3: muteFlipper{}}
	r, err := core.NewRunner(baseConfig(advs))
	if err != nil {
		t.Fatal(err)
	}
	in := input4(90)
	ir, err := r.RunInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ir.Phase3 {
		t.Fatal("phase 3 did not run")
	}
	found := false
	for _, v := range ir.NewFaulty {
		if v == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("mute claimant not identified: %v", ir.NewFaulty)
	}
	agreed := checkAgreement(t, ir)
	if !bytes.Equal(agreed, in) {
		t.Errorf("validity violated: got %x", agreed)
	}
}

// muteFlipper corrupts Phase-1 blocks and stays silent in Phase 3.
type muteFlipper struct{ core.Honest }

func (muteFlipper) CorruptBlock(_ int, _ graph.NodeID, block core.BitChunk) core.BitChunk {
	if block.BitLen == 0 {
		return block
	}
	out := core.BitChunk{Bytes: append([]byte(nil), block.Bytes...), BitLen: block.BitLen}
	out.Bytes[0] ^= 0x80
	return out
}

func (muteFlipper) CorruptClaims(*core.Claims) *core.Claims { return nil }

func TestMultiInstanceAmortization(t *testing.T) {
	// A persistent block-flipper is neutralized within f(f+1) dispute
	// phases; afterwards instances run clean.
	advs := map[graph.NodeID]core.Adversary{3: &adversary.BlockFlipper{}}
	r, err := core.NewRunner(baseConfig(advs))
	if err != nil {
		t.Fatal(err)
	}
	var inputs [][]byte
	for q := 0; q < 8; q++ {
		inputs = append(inputs, input4(byte(q*4)))
	}
	rr, err := r.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	f := 1
	if got := rr.DisputePhases(); got > f*(f+1) {
		t.Errorf("dispute phases = %d, exceeds f(f+1) = %d", got, f*(f+1))
	}
	// Validity every instance.
	for q, ir := range rr.Instances {
		agreed := checkAgreement(t, ir)
		if !bytes.Equal(agreed, inputs[q]) {
			t.Errorf("instance %d: got %x want %x", q, agreed, inputs[q])
		}
	}
	// The tail instances must be clean (adversary neutralized or silent).
	last := rr.Instances[len(rr.Instances)-1]
	if last.Phase3 {
		t.Error("last instance still runs dispute control")
	}
	if rr.Throughput() <= 0 {
		t.Error("throughput not positive")
	}
}

func TestSourceRemovedDefaultsOutput(t *testing.T) {
	// A thoroughly faulty source is eventually excluded; subsequent
	// instances agree on the default value with zero cost.
	advs := map[graph.NodeID]core.Adversary{1: muteFlipper{}}
	r, err := core.NewRunner(baseConfig(advs))
	if err != nil {
		t.Fatal(err)
	}
	in := input4(200)
	var sawDefault bool
	for q := 0; q < 4; q++ {
		ir, err := r.RunInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		agreed := checkAgreement(t, ir)
		if !r.InstanceGraph().HasNode(1) {
			// Source excluded: next outputs must be the default.
			_ = agreed
		}
		if ir.TotalTime() == 0 && bytes.Equal(agreed, make([]byte, 4)) {
			sawDefault = true
			break
		}
	}
	if !sawDefault {
		t.Error("faulty source never excluded into default-output mode")
	}
}

func TestRunInstanceInputValidation(t *testing.T) {
	r, err := core.NewRunner(baseConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunInstance([]byte{1}); err == nil {
		t.Error("short input accepted")
	}
}

func TestWideValuesStripe(t *testing.T) {
	// L = 800 bits with rho = 2 exceeds the 64-bit field cap; the check
	// stripes into ceil(800/128) = 7 words of GF(2^64) and still works.
	cfg := baseConfig(nil)
	cfg.LenBytes = 100
	r, err := core.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 100)
	for i := range in {
		in[i] = byte(i * 7)
	}
	ir, err := r.RunInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if ir.SymBits != 64 || ir.Stripes != 7 {
		t.Errorf("symBits=%d stripes=%d, want 64 and 7", ir.SymBits, ir.Stripes)
	}
	if ir.Mismatch {
		t.Error("clean striped run flagged mismatch")
	}
	agreed := checkAgreement(t, ir)
	if !bytes.Equal(agreed, in) {
		t.Error("striped validity violated")
	}
	// Striped corruption is still detected and resolved.
	cfg2 := baseConfig(map[graph.NodeID]core.Adversary{3: &adversary.BlockFlipper{}})
	cfg2.LenBytes = 100
	r2, err := core.NewRunner(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ir2, err := r2.RunInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ir2.Phase3 {
		t.Error("striped corruption not detected")
	}
	agreed2 := checkAgreement(t, ir2)
	if !bytes.Equal(agreed2, in) {
		t.Error("striped validity violated after dispute control")
	}
}

func TestSevenNodeTwoFaults(t *testing.T) {
	// Larger network: n=7, f=2, two simultaneous adversaries with
	// different strategies.
	cfg := core.Config{
		Graph:    topo.CompleteBi(7, 2),
		Source:   1,
		F:        2,
		LenBytes: 4,
		Seed:     7,
		Adversaries: map[graph.NodeID]core.Adversary{
			3: &adversary.BlockFlipper{},
			5: adversary.FalseAlarm{},
		},
	}
	r, err := core.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var inputs [][]byte
	for q := 0; q < 10; q++ {
		inputs = append(inputs, input4(byte(q)))
	}
	rr, err := r.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	f := 2
	if got := rr.DisputePhases(); got > f*(f+1) {
		t.Errorf("dispute phases = %d > f(f+1) = %d", got, f*(f+1))
	}
	for q, ir := range rr.Instances {
		agreed := checkAgreement(t, ir)
		if !bytes.Equal(agreed, inputs[q]) {
			t.Errorf("instance %d: validity violated (%x != %x)", q, agreed, inputs[q])
		}
	}
	if rr.Instances[len(rr.Instances)-1].Phase3 {
		t.Error("adversaries not neutralized by instance 10")
	}
}

func BenchmarkInstanceFaultFree(b *testing.B) {
	r, err := core.NewRunner(baseConfig(nil))
	if err != nil {
		b.Fatal(err)
	}
	in := input4(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunInstance(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstanceWithDisputeControl(b *testing.B) {
	in := input4(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r, err := core.NewRunner(baseConfig(map[graph.NodeID]core.Adversary{3: &adversary.BlockFlipper{}}))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := r.RunInstance(in); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunnerDeterministic guards the whole stack against nondeterminism
// from goroutine scheduling or map iteration: identical configurations must
// produce bit-identical results, including dispute-control findings.
func TestRunnerDeterministic(t *testing.T) {
	build := func() *core.RunResult {
		cfg := core.Config{
			Graph: topo.CompleteBi(5, 2), Source: 1, F: 1, LenBytes: 16, Seed: 99,
			Adversaries: map[graph.NodeID]core.Adversary{4: &adversary.BlockFlipper{}},
		}
		r, err := core.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var inputs [][]byte
		for q := 0; q < 4; q++ {
			in := make([]byte, 16)
			in[0] = byte(q)
			inputs = append(inputs, in)
		}
		rr, err := r.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		return rr
	}
	a, b := build(), build()
	if len(a.Instances) != len(b.Instances) {
		t.Fatal("instance count differs")
	}
	for i := range a.Instances {
		ia, ib := a.Instances[i], b.Instances[i]
		if ia.TotalTime() != ib.TotalTime() || ia.TotalBits != ib.TotalBits {
			t.Errorf("instance %d timing diverged: %v/%d vs %v/%d",
				i, ia.TotalTime(), ia.TotalBits, ib.TotalTime(), ib.TotalBits)
		}
		if ia.Phase3 != ib.Phase3 || len(ia.NewDisputes) != len(ib.NewDisputes) || len(ia.NewFaulty) != len(ib.NewFaulty) {
			t.Errorf("instance %d findings diverged", i)
		}
		for v, out := range ia.Outputs {
			if !bytes.Equal(out, ib.Outputs[v]) {
				t.Errorf("instance %d node %d output diverged", i, v)
			}
		}
	}
}

// TestRhoRecomputedAfterDispute verifies the per-instance parameter
// recomputation: disputes shrink Omega_k, which can lower U_k and hence
// rho_k and the symbol layout, and the instance must still complete.
func TestRhoRecomputedAfterDispute(t *testing.T) {
	// K4 unit: rho_1 = 2. After the flipper (node 3) is excluded, the
	// 3-node instance graph is Phase-1-only. To observe a rho change with
	// the node still present, dispute edges must survive: use a flipper
	// that corrupts only one victim so a single dispute pair appears.
	cfg := baseConfig(map[graph.NodeID]core.Adversary{
		3: &adversary.BlockFlipper{Victims: map[graph.NodeID]bool{4: true}},
	})
	r, err := core.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.RunInstance(input4(1))
	if err != nil {
		t.Fatal(err)
	}
	if !first.Phase3 {
		t.Skip("corruption travelled only on undisturbed trees this packing")
	}
	second, err := r.RunInstance(input4(2))
	if err != nil {
		t.Fatal(err)
	}
	checkAgreement(t, second)
	if second.Phase3 {
		// Allowed (another dispute round), but by f(f+1)=2 the third must
		// be clean.
		third, err := r.RunInstance(input4(3))
		if err != nil {
			t.Fatal(err)
		}
		if third.Phase3 {
			t.Error("dispute phases exceeded f(f+1)")
		}
	}
}

// TestSuppressedFlagStillDetected: a faulty node that corrupts Phase 1 but
// announces NULL cannot hide — the EC property guarantees some fault-free
// node raises the flag.
func TestSuppressedFlagStillDetected(t *testing.T) {
	advs := map[graph.NodeID]core.Adversary{3: suppressingFlipper{}}
	r, err := core.NewRunner(baseConfig(advs))
	if err != nil {
		t.Fatal(err)
	}
	in := input4(111)
	ir, err := r.RunInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if !ir.Mismatch || !ir.Phase3 {
		t.Fatalf("suppressed corruption went undetected: mismatch=%v phase3=%v", ir.Mismatch, ir.Phase3)
	}
	agreed := checkAgreement(t, ir)
	if !bytes.Equal(agreed, in) {
		t.Errorf("validity violated: %x", agreed)
	}
	if ds := r.Disputes(); ds.Len() == 0 && len(ir.NewFaulty) == 0 {
		t.Error("no dispute state accumulated")
	}
}

// suppressingFlipper corrupts Phase-1 blocks and lies that it saw no
// mismatch.
type suppressingFlipper struct{ core.Honest }

func (suppressingFlipper) CorruptBlock(_ int, _ graph.NodeID, block core.BitChunk) core.BitChunk {
	if block.BitLen == 0 {
		return block
	}
	out := core.BitChunk{Bytes: append([]byte(nil), block.Bytes...), BitLen: block.BitLen}
	out.Bytes[0] ^= 0x80 // flip a payload bit, not byte padding
	return out
}

func (suppressingFlipper) OverrideFlag(bool) bool { return false }

// TestRestoreReplansExactly: a runner recovered mid-stream — by
// replaying the committed history or from a snapshot — plans every later
// instance exactly as the uninterrupted run did. One-byte inputs code
// over GF(2^2), where scheme draws often fail verification, so a
// recovered runner that drew differently would show in SchemeTries.
func TestRestoreReplansExactly(t *testing.T) {
	const q = 12
	inputs := make([][]byte, q)
	for i := range inputs {
		inputs[i] = []byte{byte(i*37 + 5)}
	}
	for _, sc := range []struct {
		name string
		advs map[graph.NodeID]core.Adversary
	}{
		{"Honest", nil},
		{"FalseAlarm", map[graph.NodeID]core.Adversary{3: adversary.FalseAlarm{}}},
	} {
		cfg := core.Config{Graph: topo.CompleteBi(7, 1), Source: 1, F: 2, LenBytes: 1, Seed: 7, Adversaries: sc.advs}
		newRunner := func(t *testing.T) *core.Runner {
			r, err := core.NewRunner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		want, err := newRunner(t).Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		check := func(t *testing.T, r *core.Runner, from int) {
			t.Helper()
			got, err := r.Run(inputs[from:])
			if err != nil {
				t.Fatal(err)
			}
			for i, g := range got.Instances {
				w := want.Instances[from+i]
				if g.K != w.K || g.SchemeTries != w.SchemeTries {
					t.Errorf("instance %d: K %d, %d scheme tries; uninterrupted run: K %d, %d tries", w.K, g.K, g.SchemeTries, w.K, w.SchemeTries)
				}
				for v, out := range w.Outputs {
					if !bytes.Equal(g.Outputs[v], out) {
						t.Errorf("instance %d: node %d output %x, want %x", w.K, v, g.Outputs[v], out)
					}
				}
			}
		}
		for _, m := range []int{2, 4, 7} {
			t.Run(fmt.Sprintf("%s/Restore@%d", sc.name, m), func(t *testing.T) {
				r := newRunner(t)
				if err := r.Restore(m, want.Instances[:m]); err != nil {
					t.Fatal(err)
				}
				check(t, r, m)
			})
			t.Run(fmt.Sprintf("%s/RestoreSnapshot@%d", sc.name, m), func(t *testing.T) {
				b := core.NewSnapshotBuilder(cfg.Graph)
				for _, ir := range want.Instances[:m] {
					if err := b.Fold(ir); err != nil {
						t.Fatal(err)
					}
				}
				r := newRunner(t)
				if err := r.RestoreSnapshot(b.State(), nil); err != nil {
					t.Fatal(err)
				}
				check(t, r, m)
			})
		}
	}
}
