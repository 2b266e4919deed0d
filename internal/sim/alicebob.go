package sim

import (
	"repro/internal/channel"
	"repro/internal/cope"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/radio"
	"repro/internal/topology"
)

// aliceBobSchedules returns the Fig. 1 schedule constructors bound to
// the endpoints at the canonical alice/router/bob indices — the schedule
// set the alice-bob, near-far, fading and dqpsk scenarios all drive
// (they differ only in topology, channel model, or modem).
func aliceBobSchedules() map[Scheme]func(*Env) StepFunc {
	return map[Scheme]func(*Env) StepFunc{
		SchemeANC: func(e *Env) StepFunc {
			return func(i int, r Recorder) {
				stepAliceBobANC(e, r, topology.Alice, topology.Router, topology.Bob)
			}
		},
		SchemeRouting: func(e *Env) StepFunc {
			return func(i int, r Recorder) {
				stepAliceBobTraditional(e, r, topology.Alice, topology.Router, topology.Bob)
			}
		},
		SchemeCOPE: func(e *Env) StepFunc {
			pool := cope.NewPool()
			return func(i int, r Recorder) {
				stepAliceBobCOPE(e, r, pool, topology.Alice, topology.Router, topology.Bob)
			}
		},
	}
}

// aliceBob is the Fig. 1 two-way relay, the paper's headline scenario.
var aliceBob = &simpleScenario{
	name:  "alice-bob",
	desc:  "Fig. 1 two-way relay: Alice and Bob exchange packets through a router",
	build: topology.AliceBob,
	order: []Scheme{SchemeANC, SchemeRouting, SchemeCOPE},
	start: aliceBobSchedules(),
}

func init() { Register(aliceBob) }

// AliceBob returns the registered Fig. 1 scenario.
func AliceBob() Scenario { return aliceBob }

// stepAliceBobANC runs one exchange of the Fig. 1(d) schedule between the
// endpoints at indices ai and bi relaying through ri: the triggered
// uplinks collide at the router, which amplifies and broadcasts the
// collision, and each endpoint cancels its own packet to decode the
// other's.
func stepAliceBobANC(e *Env, r Recorder, ai, ri, bi int) {
	relayANC(e, r, triggeredUplinks(e, ai, ri, bi))
}

// uplinks is the first slot of a triggered exchange: the frames both
// endpoints sent, the router's reception of their collision, and the
// drawn start offset of the later one.
type uplinks struct {
	ai, ri, bi int
	recA, recB frame.SentRecord
	routerRx   dsp.Signal
	delta      int
}

// triggeredUplinks runs slot 1 of the Fig. 1(d) schedule: both endpoints
// transmit simultaneously (the router's trigger stimulates both; the
// second starts after the §7.2 random delay). Nothing is recorded yet;
// the router's reception is a scratch buffer that relayANC consumes or
// the caller releases.
func triggeredUplinks(e *Env, ai, ri, bi int) uplinks {
	alice, bob := e.nodes[ai], e.nodes[bi]
	pktA := frame.NewPacket(alice.ID, bob.ID, alice.NextSeq(), e.payload())
	pktB := frame.NewPacket(bob.ID, alice.ID, bob.NextSeq(), e.payload())
	mac.MarkTrigger(&pktA.Header)
	recA := e.buildFrame(alice, pktA)
	recB := e.buildFrame(bob, pktB)

	// One of the two (random) starts after the drawn delay.
	delta := e.cfg.Delay.Draw(e.rng)
	dA, dB := 0, delta
	if e.rng.Intn(2) == 1 {
		dA, dB = delta, 0
	}
	linkAR, _ := e.graph.Link(ai, ri)
	linkBR, _ := e.graph.Link(bi, ri)
	routerRx := e.receive(
		channel.Transmission{Signal: recA.Samples, Link: linkAR, Delay: dA},
		channel.Transmission{Signal: recB.Samples, Link: linkBR, Delay: dB},
	)
	return uplinks{ai: ai, ri: ri, bi: bi, recA: recA, recB: recB, routerRx: routerRx, delta: delta}
}

// relayANC runs slot 2 of the Fig. 1(d) schedule and charges the
// exchange: the router re-amplifies the collision to its transmit power
// and broadcasts it, noise and all (§2, §8), and each endpoint decodes
// the other's packet.
func relayANC(e *Env, r Recorder, up uplinks) {
	// The amplification reuses the reception buffer in place; it goes
	// back to the pool once the downlink receptions are synthesized.
	relayed := channel.AmplifyToInPlace(up.routerRx, 1)
	linkRA, _ := e.graph.Link(up.ri, up.ai)
	linkRB, _ := e.graph.Link(up.ri, up.bi)
	rxA := e.receive(channel.Transmission{Signal: relayed, Link: linkRA})
	rxB := e.receive(channel.Transmission{Signal: relayed, Link: linkRB})
	e.release(relayed)

	// Both downlink receptions decode as one burst: queue order matches
	// the old sequential call order, so accounting is bit-identical.
	e.queueANCDecode(e.nodes[up.ai], rxA, up.recB)
	e.queueANCDecode(e.nodes[up.bi], rxB, up.recA)
	e.flushANCDecodes(r)

	e.RecordOverlap(r, up.delta)
	e.ChargeCollisionSlots(r, 2, up.delta)
}

// accountANCDecode decodes an interfered reception at a node, measures the
// payload BER against the wanted frame, and charges goodput/loss.
func (e *Env) accountANCDecode(r Recorder, n *radio.Node, rx dsp.Signal, wanted frame.SentRecord) {
	res, err := n.Receive(rx)
	e.accountANCResult(r, res, err, wanted)
}

// accountANCResult applies the ANC accounting rule to one decode outcome:
// a failed decode (or one whose BER exceeds what FEC can repair) loses the
// wanted packet; otherwise its payload bits are delivered, discounted by
// the BER-dependent redundancy charge.
func (e *Env) accountANCResult(r Recorder, res *core.Result, err error, wanted frame.SentRecord) {
	if err != nil {
		r.RecordLost(1)
		return
	}
	// Delivery is BER-gated, not header-CRC-gated: with the fixed frame
	// size configured, header bit errors are repaired by the same FEC
	// whose overhead the redundancy model charges (paper §11.2, §11.4).
	ber := payloadBER(wanted.Bits, res.WantedBits, int(wanted.Packet.Header.Len))
	r.RecordANCDecode(ber)
	good := e.cfg.Redundancy.Goodput(ber)
	if good == 0 {
		r.RecordLost(1)
		return
	}
	r.RecordDelivered(float64(int(wanted.Packet.Header.Len)*8) * good)
}

// stepAliceBobTraditional runs one exchange of the Fig. 1(b) schedule
// under the optimal MAC: four sequential single-signal transmissions,
// with the router decoding and re-modulating (digital regeneration) at
// each relay hop.
func stepAliceBobTraditional(e *Env, r Recorder, ai, ri, bi int) {
	alice, router, bob := e.nodes[ai], e.nodes[ri], e.nodes[bi]
	pktA := frame.NewPacket(alice.ID, bob.ID, alice.NextSeq(), e.payload())
	pktB := frame.NewPacket(bob.ID, alice.ID, bob.NextSeq(), e.payload())
	e.traditionalRelay(r, alice, router, bob, pktA, ai, ri, bi)
	e.traditionalRelay(r, bob, router, alice, pktB, bi, ri, ai)
}

// traditionalRelay delivers one packet src→relay→dst with two clean hops.
func (e *Env) traditionalRelay(r Recorder, src, relay, dst *radio.Node, pkt frame.Packet, si, ri, di int) {
	rec := e.buildFrame(src, pkt)
	r.RecordAirTime(float64(2 * (e.frameLen + e.guard)))
	ok, payload := e.cleanHop(rec, si, ri)
	if !ok {
		r.RecordLost(1)
		return
	}
	fwd := e.buildFrame(relay, frame.Packet{Header: pkt.Header, Payload: payload})
	ok, payload = e.cleanHop(fwd, ri, di)
	if !ok {
		r.RecordLost(1)
		return
	}
	r.RecordDelivered(float64(len(payload) * 8))
}

// stepAliceBobCOPE runs one exchange of the Fig. 1(c) schedule:
// sequential uplinks, then a single XOR-coded broadcast that both
// endpoints decode with their own packet (digital network coding, [17]).
func stepAliceBobCOPE(e *Env, r Recorder, pool *cope.Pool, ai, ri, bi int) {
	alice, router, bob := e.nodes[ai], e.nodes[ri], e.nodes[bi]
	pktA := frame.NewPacket(alice.ID, bob.ID, alice.NextSeq(), e.payload())
	pktB := frame.NewPacket(bob.ID, alice.ID, bob.NextSeq(), e.payload())

	// Slots 1 and 2: the two uplinks.
	r.RecordAirTime(float64(2 * (e.frameLen + e.guard)))
	okA, gotA := e.cleanHop(e.buildFrame(alice, pktA), ai, ri)
	okB, gotB := e.cleanHop(e.buildFrame(bob, pktB), bi, ri)
	if okA {
		pool.Put(frame.Packet{Header: pktA.Header, Payload: gotA})
	}
	if okB {
		pool.Put(frame.Packet{Header: pktB.Header, Payload: gotB})
	}

	// Slot 3: coded broadcast whenever the pool has a pair.
	a, b, have := pool.TakePair(alice.ID, bob.ID, bob.ID, alice.ID)
	if !have {
		// An uplink loss starves the coding opportunity; the missing
		// counterpart is lost outright (no retransmission modeling,
		// matching the other schemes).
		r.RecordLost(2 - boolToInt(okA) - boolToInt(okB))
		return
	}
	coded, err := cope.Encode(router.ID, router.NextSeq(), a, b)
	if err != nil {
		r.RecordLost(2)
		return
	}
	r.RecordAirTime(float64(e.frameLen + e.guard))
	rec := e.buildFrame(router, coded)
	okToA, codedAtA := e.cleanHop(rec, ri, ai)
	okToB, codedAtB := e.cleanHop(rec, ri, bi)
	e.accountCOPEDecode(r, okToA, codedAtA, coded.Header, a.Payload, b.Payload)
	e.accountCOPEDecode(r, okToB, codedAtB, coded.Header, b.Payload, a.Payload)
}

// accountCOPEDecode XORs a received coded payload with the endpoint's own
// native payload and checks the result against the counterpart.
func (e *Env) accountCOPEDecode(r Recorder, ok bool, codedPayload []byte, h frame.Header, own, want []byte) {
	if !ok {
		r.RecordLost(1)
		return
	}
	got, err := cope.Decode(frame.Packet{Header: h, Payload: codedPayload}, own)
	if err != nil || string(got) != string(want) {
		r.RecordLost(1)
		return
	}
	r.RecordDelivered(float64(len(want) * 8))
}

// AccountCOPEDecode exposes the COPE accounting rule to out-of-package
// scenarios.
func (e *Env) AccountCOPEDecode(r Recorder, ok bool, codedPayload []byte, h frame.Header, own, want []byte) {
	e.accountCOPEDecode(r, ok, codedPayload, h, own, want)
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
