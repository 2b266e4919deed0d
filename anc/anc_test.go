package anc_test

import (
	"math/rand"
	"testing"

	"repro/anc"
)

// TestPublicAPIEndToEnd exercises the facade the way examples/alicebob
// does: two endpoints exchange packets through an amplify-and-forward
// relay in a single slot pair.
func TestPublicAPIEndToEnd(t *testing.T) {
	modem := anc.NewModem()
	const floor = 1e-3
	alice := anc.NewNode(1, modem, 2*floor)
	bob := anc.NewNode(2, modem, 2*floor)

	rng := rand.New(rand.NewSource(1))
	payloadA := make([]byte, 64)
	payloadB := make([]byte, 64)
	rng.Read(payloadA)
	rng.Read(payloadB)
	pktA := anc.NewPacket(1, 2, 1, payloadA)
	pktB := anc.NewPacket(2, 1, 1, payloadB)
	recA := alice.BuildFrame(pktA)
	recB := bob.BuildFrame(pktB)

	// Slot 1: simultaneous transmission; collision at the router.
	routerRx := anc.Receive(anc.NewNoiseSource(floor, 2), 400,
		anc.Transmission{Signal: recA.Samples, Link: anc.Link{Gain: 0.8, Phase: 0.4, FreqOffset: 0.006}},
		anc.Transmission{Signal: recB.Samples, Link: anc.Link{Gain: 0.75, Phase: -0.9, FreqOffset: -0.007}, Delay: 1100},
	)
	// Slot 2: amplify-and-forward broadcast.
	relayed := anc.AmplifyForward(routerRx, 1)
	rxA := anc.Receive(anc.NewNoiseSource(floor, 3), 400,
		anc.Transmission{Signal: relayed, Link: anc.Link{Gain: 0.7, Phase: 1.2}})
	rxB := anc.Receive(anc.NewNoiseSource(floor, 4), 400,
		anc.Transmission{Signal: relayed, Link: anc.Link{Gain: 0.72, Phase: 0.3}})

	resA, err := alice.Receive(rxA)
	if err != nil {
		t.Fatalf("alice: %v", err)
	}
	if ber := frameBER(anc.Marshal(pktB), resA.WantedBits); ber > 0.02 {
		t.Errorf("alice's recovered frame BER = %.4f", ber)
	}
	if resA.HeaderOK && resA.Packet.Header != pktB.Header {
		t.Errorf("alice recovered %v, want Bob's header", resA.Packet.Header)
	}
	resB, err := bob.Receive(rxB)
	if err != nil {
		t.Fatalf("bob: %v", err)
	}
	if !resB.Backward {
		t.Error("bob (second transmitter) should decode backward")
	}
	if ber := frameBER(anc.Marshal(pktA), resB.WantedBits); ber > 0.02 {
		t.Errorf("bob's recovered frame BER = %.4f", ber)
	}
}

// frameBER counts mismatches over the sent frame; missing bits count as
// errors (the same convention the evaluation uses).
func frameBER(sent, got []byte) float64 {
	if len(sent) == 0 {
		return 0
	}
	n := len(got)
	if n > len(sent) {
		n = len(sent)
	}
	errs := len(sent) - n
	for i := 0; i < n; i++ {
		if sent[i] != got[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(sent))
}

func TestPublicModemRoundTrip(t *testing.T) {
	m := anc.NewModem(anc.WithSamplesPerSymbol(2), anc.WithAmplitude(1.5))
	in := []byte{1, 0, 1, 1, 0, 0, 1}
	got := m.Demodulate(m.Modulate(in))
	for i := range in {
		if got[i] != in[i] {
			t.Fatal("modem round trip failed")
		}
	}
}

func TestPublicFrameRoundTrip(t *testing.T) {
	p := anc.NewPacket(3, 4, 9, []byte("public api"))
	got, err := anc.Unmarshal(anc.Marshal(p))
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "public api" {
		t.Error("payload mismatch")
	}
	if anc.FrameBits(10) != len(anc.Marshal(p)) {
		t.Error("FrameBits disagrees with Marshal")
	}
}

func TestPublicCapacitySweep(t *testing.T) {
	pts := anc.CapacitySweep(0, 30, 10)
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	if pts[3].Gain <= 1 {
		t.Errorf("gain at 30 dB = %v, want > 1", pts[3].Gain)
	}
}

func TestPublicSimRunners(t *testing.T) {
	cfg := anc.SimConfig{Packets: 4}
	eng := anc.NewEngine(cfg)
	sc, _ := anc.LookupScenario("alice-bob")
	a, err := eng.Run(sc, anc.SchemeANC, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := eng.Run(sc, anc.SchemeRouting, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput() <= tr.Throughput() {
		t.Errorf("ANC %.5f not above routing %.5f", a.Throughput(), tr.Throughput())
	}
}

func TestPublicTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := anc.DefaultSimConfig().Topology
	g := anc.NewAliceBobTopology(cfg, rng)
	if g.N != 3 {
		t.Errorf("alice-bob N = %d", g.N)
	}
	if anc.NewChainTopology(cfg, rng).N != 4 || anc.NewXTopology(cfg, rng).N != 5 {
		t.Error("topology sizes wrong")
	}
}

// TestPublicChannelModels exercises the time-varying channel surface:
// a FadingSpec on the topology config makes links evolve over slots,
// explicit models attach to single edges, and Ptr expresses a true
// 0 dB configuration.
func TestPublicChannelModels(t *testing.T) {
	cfg := anc.DefaultSimConfig().Topology
	cfg.Fading = anc.FadingSpec{Kind: anc.FadingRayleigh}
	g := anc.NewAliceBobTopology(cfg, rand.New(rand.NewSource(6)))
	a, _ := g.LinkAt(0, 1, 0)
	b, _ := g.LinkAt(0, 1, 1)
	if a == b {
		t.Error("rayleigh spec did not vary the link over slots")
	}

	custom := anc.NewTopology(2, []string{"a", "b"}, anc.DefaultSimConfig().Topology, rand.New(rand.NewSource(7)))
	custom.ConnectModel(0, 1, anc.Mobility{Base: anc.Link{Gain: 0.5}, PeriodSlots: 4, SwingDB: 6})
	l0, _ := custom.LinkAt(0, 1, 0)
	l1, _ := custom.LinkAt(0, 1, 1)
	if l0.Gain == l1.Gain {
		t.Error("mobility edge did not swing")
	}

	if kind, err := anc.ParseFadingKind("mobility"); err != nil || kind != anc.FadingMobility {
		t.Errorf("ParseFadingKind: %v, %v", kind, err)
	}
	if v := anc.Ptr(0); v == nil || *v != 0 {
		t.Error("Ptr(0) did not produce an explicit zero")
	}
	if sc, ok := anc.LookupScenario("chain-5"); !ok || sc.Name() != anc.NewChainN(5).Name() {
		t.Error("chain-5 not registered or NewChainN name mismatch")
	}
}

// TestPublicModemRegistry covers the PHY axis through the facade: the
// built-in modems resolve by name and SimConfig.Modem drives a whole
// campaign under the second modem.
func TestPublicModemRegistry(t *testing.T) {
	names := anc.Modems()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	if !have["msk"] || !have["dqpsk"] {
		t.Fatalf("built-in modems missing from registry: %v", names)
	}

	m, err := anc.NewModemByName("dqpsk", 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "dqpsk" || m.BitsPerSymbol() != 2 {
		t.Errorf("dqpsk modem wrong: name %q, %d bits/symbol", m.Name(), m.BitsPerSymbol())
	}
	if _, err := anc.NewModemByName("warp", 4); err == nil {
		t.Error("unknown modem name resolved")
	}

	sc, ok := anc.LookupScenario("alice-bob")
	if !ok {
		t.Fatal("alice-bob not registered")
	}
	cfg := anc.SimConfig{Packets: 2, Modem: "dqpsk"}
	metrics, err := anc.NewEngine(cfg).Run(sc, anc.SchemeANC, 3)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.TimeSamples <= 0 || len(metrics.BERs) == 0 {
		t.Errorf("dqpsk campaign degenerate: %+v", metrics)
	}
}
