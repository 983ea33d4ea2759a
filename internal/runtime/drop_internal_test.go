package runtime

import (
	"testing"
	"time"

	"nab/internal/core"
	fr "nab/internal/flight"
	"nab/internal/topo"
	"nab/internal/transport"
)

// TestRecvLoopCountsDrops: each of recvLoop's drop paths — a launch that
// already finished, a launch beyond pendingSlack, and a buffered frame a
// Restore flushes — bumps its reason's counter and records a frame-drop
// flight event naming the frame.
func TestRecvLoopCountsDrops(t *testing.T) {
	fr.Default().Enable(1 << 12)
	defer fr.Default().Disable()
	rt, err := New(Config{Config: core.Config{Graph: topo.CompleteBi(4, 1), Source: 1, F: 1, LenBytes: 4, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var before [len(mFramesDropped)]int64
	for code, c := range mFramesDropped {
		before[code] = c.Value()
	}
	delta := func(code uint64) int64 { return mFramesDropped[code].Value() - before[code] }

	l, err := rt.tr.Dial(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	beyond := 1 + rt.pendingSlack()
	for _, inst := range []uint64{0, 1, beyond} { // stale, buffered, beyond slack
		if err := l.Send(&transport.Message{Instance: inst, Step: 7, From: 2, To: 1, Marker: true}); err != nil {
			t.Fatal(err)
		}
	}
	// The link is FIFO: once the last frame is counted, the buffered one
	// is in rt.pending.
	for deadline := time.Now().Add(5 * time.Second); delta(fr.DropBeyondSlack) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("beyond-slack frame never counted")
		}
	}
	if err := rt.Restore(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if d := delta(fr.DropStaleLaunch); d < 1 {
		t.Errorf("stale_launch drops +%d, want >= 1", d)
	}
	if d := delta(fr.DropBeyondSlack); d != 1 {
		t.Errorf("beyond_slack drops +%d, want 1", d)
	}
	if d := delta(fr.DropRestoreFlush); d != 1 {
		t.Errorf("restore_flush drops +%d, want 1", d)
	}

	want := map[uint64]uint64{fr.DropStaleLaunch: 0, fr.DropRestoreFlush: 1, fr.DropBeyondSlack: beyond}
	for _, ev := range fr.Default().Events() {
		if ev.Type != fr.EvFrameDrop || ev.Node != 1 || ev.Peer != 2 || ev.Step != 7 {
			continue
		}
		if inst, ok := want[ev.Arg]; !ok || inst != ev.Inst {
			t.Errorf("frame-drop event %s for launch %d", fr.DropName(ev.Arg), ev.Inst)
			continue
		}
		delete(want, ev.Arg)
	}
	for code, inst := range want {
		t.Errorf("no %s frame-drop event for launch %d", fr.DropName(code), inst)
	}
}
