package radio

import (
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/frame"
	"repro/internal/msk"
)

const floor = 1e-3

func mkNode(id uint16) *Node {
	return NewNode(id, msk.New(), floor)
}

func mkPayload(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

// transmitClean sends one frame over a fresh link and returns the
// reception at the far end.
func transmitClean(rec frame.SentRecord, gain float64, seed int64) dsp.Signal {
	return channel.Receive(dsp.NewNoiseSource(floor, seed), 300,
		channel.Transmission{Signal: rec.Samples, Link: channel.Link{Gain: gain, Phase: 1.1}, Delay: 150})
}

func TestBuildFrameStoresRecord(t *testing.T) {
	n := mkNode(1)
	pkt := frame.NewPacket(1, 2, n.NextSeq(), []byte("data"))
	rec := n.BuildFrame(pkt)
	if len(rec.Bits) != frame.FrameBits(4) {
		t.Errorf("frame bits = %d", len(rec.Bits))
	}
	if len(rec.Samples) != n.Modem.NumSamples(len(rec.Bits)) {
		t.Errorf("samples = %d", len(rec.Samples))
	}
	if !n.Knows(pkt.Header) {
		t.Error("sent packet not in buffer")
	}
}

// TestMarshalFrameRemembersWithoutModulating pins the split BuildFrame
// is made of: MarshalFrame stores the record and returns BuildFrame's
// bits with no samples, and modulating those bits gives BuildFrame's
// samples.
func TestMarshalFrameRemembersWithoutModulating(t *testing.T) {
	n, m := mkNode(1), mkNode(1)
	pkt := frame.NewPacket(1, 2, n.NextSeq(), []byte("data"))
	rec := n.MarshalFrame(pkt)
	if rec.Samples != nil {
		t.Errorf("MarshalFrame modulated %d samples", len(rec.Samples))
	}
	if !n.Knows(pkt.Header) {
		t.Error("marshaled packet not in buffer")
	}
	built := m.BuildFrame(pkt)
	if string(rec.Bits) != string(built.Bits) {
		t.Error("MarshalFrame bits differ from BuildFrame's")
	}
	samples := n.Modem.ModulateInto(nil, rec.Bits)
	if len(samples) != len(built.Samples) {
		t.Fatalf("%d samples from MarshalFrame's bits, %d from BuildFrame", len(samples), len(built.Samples))
	}
	for i := range built.Samples {
		if samples[i] != built.Samples[i] {
			t.Fatalf("sample %d: %v from MarshalFrame's bits, %v from BuildFrame", i, samples[i], built.Samples[i])
		}
	}
}

func TestNextSeqMonotone(t *testing.T) {
	n := mkNode(1)
	a, b, c := n.NextSeq(), n.NextSeq(), n.NextSeq()
	if !(a < b && b < c) {
		t.Errorf("sequence numbers %d %d %d not increasing", a, b, c)
	}
}

func TestCleanReceive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tx := mkNode(1)
	rxNode := mkNode(2)
	pkt := frame.NewPacket(1, 2, tx.NextSeq(), mkPayload(rng, 48))
	rec := tx.BuildFrame(pkt)
	res, err := rxNode.Receive(transmitClean(rec, 0.8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean || !res.BodyOK {
		t.Fatalf("clean=%v bodyOK=%v", res.Clean, res.BodyOK)
	}
	if string(res.Packet.Payload) != string(pkt.Payload) {
		t.Error("payload mismatch")
	}
}

func TestOverhearRemembers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tx := mkNode(1)
	snoop := mkNode(4)
	pkt := frame.NewPacket(1, 9, tx.NextSeq(), mkPayload(rng, 48))
	rec := tx.BuildFrame(pkt)
	res, err := snoop.Overhear(transmitClean(rec, 0.7, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HeaderOK {
		t.Fatal("overheard header failed")
	}
	if !snoop.Knows(pkt.Header) {
		t.Error("overheard packet not remembered")
	}
}

// aliceBobReception synthesizes the relayed interfered reception at Alice.
func aliceBobReception(t *testing.T, alice, bob *Node, pktA, pktB frame.Packet, seed int64) dsp.Signal {
	t.Helper()
	recA := alice.BuildFrame(pktA)
	recB := bob.BuildFrame(pktB)
	routerRx := channel.Receive(dsp.NewNoiseSource(floor, seed), 200,
		channel.Transmission{Signal: recA.Samples, Link: channel.Link{Gain: 0.8, Phase: 0.5, FreqOffset: 0.007}},
		channel.Transmission{Signal: recB.Samples, Link: channel.Link{Gain: 0.75, Phase: -0.9, FreqOffset: -0.006}, Delay: 900},
	)
	relayed := channel.AmplifyTo(routerRx, 1)
	return channel.Receive(dsp.NewNoiseSource(floor, seed+1), 300,
		channel.Transmission{Signal: relayed, Link: channel.Link{Gain: 0.7, Phase: 1.8}, Delay: 60})
}

func TestInterferedReceiveViaNode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alice, bob := mkNode(1), mkNode(2)
	pktA := frame.NewPacket(1, 2, alice.NextSeq(), mkPayload(rng, 64))
	pktB := frame.NewPacket(2, 1, bob.NextSeq(), mkPayload(rng, 64))
	rx := aliceBobReception(t, alice, bob, pktA, pktB, 6)
	res, err := alice.Receive(rx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HeaderOK || res.Packet.Header != pktB.Header {
		t.Fatalf("recovered %v, want Bob's header", res.Packet.Header)
	}
}

func TestDecideRouterKnown(t *testing.T) {
	// A router that knows one of the colliding packets decodes (chain
	// topology, §7.5).
	rng := rand.New(rand.NewSource(7))
	alice, bob := mkNode(1), mkNode(2)
	pktA := frame.NewPacket(1, 2, alice.NextSeq(), mkPayload(rng, 64))
	pktB := frame.NewPacket(2, 1, bob.NextSeq(), mkPayload(rng, 64))
	rx := aliceBobReception(t, alice, bob, pktA, pktB, 8)

	router := mkNode(9)
	router.Remember(frame.SentRecord{Packet: pktA, Bits: frame.Marshal(pktA)})
	if got := router.DecideRouter(rx, nil); got != ActionDecode {
		t.Errorf("action = %v, want ActionDecode", got)
	}
}

func TestDecideRouterAmplifyForward(t *testing.T) {
	// A router that knows neither packet but sees opposite flows
	// amplifies and forwards (Alice–Bob, §7.5).
	rng := rand.New(rand.NewSource(9))
	alice, bob := mkNode(1), mkNode(2)
	pktA := frame.NewPacket(1, 2, alice.NextSeq(), mkPayload(rng, 64))
	pktB := frame.NewPacket(2, 1, bob.NextSeq(), mkPayload(rng, 64))
	rx := aliceBobReception(t, alice, bob, pktA, pktB, 10)

	router := mkNode(9)
	opposite := func(a, b frame.Header) bool {
		return a.Src == b.Dst && a.Dst == b.Src
	}
	if got := router.DecideRouter(rx, opposite); got != ActionAmplifyForward {
		t.Errorf("action = %v, want ActionAmplifyForward", got)
	}
}

func TestDecideRouterDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alice, bob := mkNode(1), mkNode(2)
	pktA := frame.NewPacket(1, 2, alice.NextSeq(), mkPayload(rng, 64))
	pktB := frame.NewPacket(2, 1, bob.NextSeq(), mkPayload(rng, 64))
	rx := aliceBobReception(t, alice, bob, pktA, pktB, 12)

	router := mkNode(9)
	notOpposite := func(a, b frame.Header) bool { return false }
	if got := router.DecideRouter(rx, notOpposite); got != ActionDrop {
		t.Errorf("action = %v, want ActionDrop", got)
	}
	if got := router.DecideRouter(rx, nil); got != ActionDrop {
		t.Errorf("nil predicate action = %v, want ActionDrop", got)
	}
}

func TestOverhearSkipsOwnTraffic(t *testing.T) {
	// A packet addressed to the snooping node is its own traffic — not an
	// overhearing target (it will arrive via the relay).
	rng := rand.New(rand.NewSource(13))
	tx := mkNode(1)
	snoop := mkNode(2)
	pkt := frame.NewPacket(1, 2, tx.NextSeq(), mkPayload(rng, 48)) // dst == snoop
	rec := tx.BuildFrame(pkt)
	snoop.Overhear(transmitClean(rec, 0.7, 14))
	if snoop.Knows(pkt.Header) {
		t.Error("node remembered its own inbound traffic as an overheard reference")
	}
}

func TestOverhearBackwardCapture(t *testing.T) {
	// When the wanted overhearing target starts second in a collision,
	// the snoop must capture it via the time-reversed pass.
	rng := rand.New(rand.NewSource(15))
	n1, n3 := mkNode(1), mkNode(3)
	snoop := mkNode(2)
	target := frame.NewPacket(1, 4, n1.NextSeq(), mkPayload(rng, 64))  // want this
	ownFlow := frame.NewPacket(3, 2, n3.NextSeq(), mkPayload(rng, 64)) // dst == snoop
	recT := n1.BuildFrame(target)
	recO := n3.BuildFrame(ownFlow)
	// ownFlow starts first and is strong enough to be detected, so the
	// forward TryClean decodes it — and must skip it (dst == self),
	// retrying on the reversed stream to capture the late target.
	rx := channel.Receive(dsp.NewNoiseSource(floor, 16), 400,
		channel.Transmission{Signal: recO.Samples, Link: channel.Link{Gain: 0.3, Phase: 0.4}},
		channel.Transmission{Signal: recT.Samples, Link: channel.Link{Gain: 0.6, Phase: 1.2}, Delay: 1100},
	)
	res, err := snoop.Overhear(rx)
	if err != nil {
		t.Fatalf("overhear: %v", err)
	}
	if !res.Backward {
		t.Error("expected backward capture of the late-starting target")
	}
	if !snoop.Knows(target.Header) {
		t.Error("late-starting target not remembered")
	}
	if snoop.Knows(ownFlow.Header) {
		t.Error("own traffic remembered")
	}
}
