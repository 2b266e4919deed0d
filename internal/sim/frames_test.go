package sim

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/topology"
)

// TestSlotFramesShareEqualBits pins the slot-scoped frame pool: within a
// slot, a frame whose bits equal an earlier one's shares its samples — a
// relay regenerating the frame it decoded — while different bits get
// their own buffer. Every sender remembers its packet either way, and
// ending the slot empties the frame list into the free list.
func TestSlotFramesShareEqualBits(t *testing.T) {
	e := newEnvForTest(Config{}, 1)
	alice, router, bob := e.nodes[topology.Alice], e.nodes[topology.Router], e.nodes[topology.Bob]
	pkt := frame.NewPacket(alice.ID, bob.ID, alice.NextSeq(), e.payload())
	sent := e.buildFrame(alice, pkt)
	relayed := e.buildFrame(router, frame.Packet{Header: pkt.Header, Payload: append([]byte(nil), pkt.Payload...)})
	other := e.buildFrame(bob, frame.NewPacket(bob.ID, alice.ID, bob.NextSeq(), e.payload()))

	if &relayed.Samples[0] != &sent.Samples[0] {
		t.Error("a relayed frame with the sender's bits does not share the sender's samples")
	}
	if &other.Samples[0] == &sent.Samples[0] {
		t.Error("frames with different bits share samples")
	}
	for _, rec := range []frame.SentRecord{sent, relayed, other} {
		want := e.modem.Modulate(rec.Bits)
		if len(rec.Samples) != len(want) {
			t.Fatalf("%d samples, Modulate gives %d", len(rec.Samples), len(want))
		}
		for i := range want {
			if math.Float64bits(real(rec.Samples[i])) != math.Float64bits(real(want[i])) ||
				math.Float64bits(imag(rec.Samples[i])) != math.Float64bits(imag(want[i])) {
				t.Fatalf("sample %d = %v, Modulate gives %v", i, rec.Samples[i], want[i])
			}
		}
	}
	if !alice.Knows(pkt.Header) || !router.Knows(pkt.Header) {
		t.Error("a sender whose frame shared samples did not remember the packet")
	}
	if got := len(e.scratch.frames); got != 2 {
		t.Errorf("slot holds %d frames, want 2 distinct", got)
	}

	e.scratch.endSlot()
	if got := len(e.scratch.frames); got != 0 {
		t.Errorf("%d frames left after the slot ended", got)
	}
	if got := len(e.scratch.freeFrames); got != 2 {
		t.Errorf("%d frame buffers returned to the pool, want 2", got)
	}
}

// TestFramePoolRetention pins what a warmed worker keeps between slots:
// after every scheme's alice-bob runs on one Scratch, the frame free list
// holds as many buffers as the busiest slot sends — COPE's two uplinks
// and its coded broadcast — each exactly one frame long, and no frame is
// left in the slot list. A Scratch shed for the package pool keeps no
// sample buffers or rotation tables at all.
func TestFramePoolRetention(t *testing.T) {
	cfg := Config{Packets: 3}
	eng := NewEngine(cfg)
	sc := AliceBob()
	s := NewScratch()
	for seed := int64(1); seed <= 4; seed++ {
		for _, scheme := range sc.Schemes() {
			var m Metrics
			if err := eng.RunRecording(sc, scheme, seed, &m, s); err != nil {
				t.Fatalf("%s seed %d: %v", scheme, seed, err)
			}
		}
	}
	if got := len(s.frames); got != 0 {
		t.Errorf("%d frames left in the slot list after the runs", got)
	}
	if got := len(s.freeFrames); got != 3 {
		t.Errorf("worker retains %d frame buffers, want 3", got)
	}
	n := cfg.FrameSamples()
	for i, b := range s.freeFrames {
		if len(b) != n || cap(b) != n {
			t.Errorf("frame buffer %d: len %d cap %d, want exactly one frame (%d samples)", i, len(b), cap(b), n)
		}
	}

	s.shed()
	if len(s.free) != 0 || len(s.freeFrames) != 0 || len(s.rots) != 0 || s.nrots != 0 {
		t.Errorf("shed Scratch keeps %d reception buffers, %d frame buffers and %d rotation tables",
			len(s.free), len(s.freeFrames), len(s.rots))
	}
}
