package sim

import (
	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/topology"
)

// chain is the unidirectional 3-hop chain of Fig. 2, where digital
// network coding cannot help but ANC can.
var chain = &simpleScenario{
	name:  "chain",
	desc:  "Fig. 2 chain: one flow over three hops; ANC overlaps N1 and N3",
	build: topology.Chain,
	order: []Scheme{SchemeANC, SchemeRouting},
	start: map[Scheme]func(*Env) StepFunc{
		SchemeANC:     func(e *Env) StepFunc { return func(i int, r Recorder) { stepChainANC(e, r, i) } },
		SchemeRouting: func(e *Env) StepFunc { return func(i int, r Recorder) { stepChainTraditional(e, r) } },
	},
}

func init() { Register(chain) }

// Chain returns the registered Fig. 2 scenario.
func Chain() Scenario { return chain }

// stepChainANC runs one steady-state cycle of Fig. 2(c): N1 transmits the
// next packet p_{i+1} while N3 simultaneously forwards p_i to N4 (both
// triggered by N2's preceding transmission). N2 receives the collision,
// cancels p_i — which it forwarded to N3 one slot earlier and therefore
// knows — and decodes p_{i+1}. N4 is out of N1's range and receives p_i
// cleanly. The second slot of the cycle is N2's own forward of p_{i+1} to
// N3.
//
// Per delivered packet: one collision slot (offset + frame + guard) and
// one clean slot (frame + guard), versus three clean slots for routing —
// the 3 → 2 reduction of §2(b).
func stepChainANC(e *Env, r Recorder, i int) {
	n1, n2, n3, n4 := e.nodes[0], e.nodes[1], e.nodes[2], e.nodes[3]
	// p_i: the packet N2 already forwarded to N3 (steady state). N2
	// knows its bits; N3 retransmits the same frame.
	pktOld := frame.NewPacket(n1.ID, n4.ID, uint32(1000+i*2), e.payload())
	recOld := e.buildFrame(n3, pktOld)
	n2.Remember(recOld)
	// p_{i+1}: N1's fresh packet.
	pktNew := frame.NewPacket(n1.ID, n4.ID, uint32(1000+i*2+1), e.payload())
	recNew := e.buildFrame(n1, pktNew)

	// Collision slot: N1→N2 and N3→N4 simultaneously; N2 hears both
	// (N3 is adjacent), N4 hears only N3.
	delta := e.cfg.Delay.Draw(e.rng)
	dNew, dOld := 0, delta
	if e.rng.Intn(2) == 1 {
		dNew, dOld = delta, 0
	}
	link12, _ := e.graph.Link(topology.ChainN1, topology.ChainN2)
	link32, _ := e.graph.Link(topology.ChainN3, topology.ChainN2)
	rxN2 := e.receive(
		channel.Transmission{Signal: recNew.Samples, Link: link12, Delay: dNew},
		channel.Transmission{Signal: recOld.Samples, Link: link32, Delay: dOld},
	)

	// One packet traverses the chain per cycle. Its quality is set by
	// the ANC decode it went through at N2 (measured here on the
	// statistically identical decode of p_{i+1}) and it reaches the
	// sink only if N4's clean reception of p_i succeeds. Both receptions
	// are synthesized first (reception synthesis is where the RNG draws
	// happen), then decoded as one burst; the accounting below reads the
	// batch results in queue order.
	e.queueANCDecode(n2, rxN2, frame.SentRecord{})
	link34, _ := e.graph.Link(topology.ChainN3, topology.ChainN4)
	rxN4 := e.receive(channel.Transmission{Signal: recOld.Samples, Link: link34, Delay: dOld})
	e.queueANCDecode(n4, rxN4, frame.SentRecord{})
	out := e.flushBatch()
	resN2, errN2 := out[0].Result, out[0].Err
	resN4, errN4 := out[1].Result, out[1].Err
	e.finishBatch()
	sinkOK := errN4 == nil && resN4.BodyOK

	if errN2 != nil {
		r.RecordLost(1)
	} else {
		ber := payloadBER(recNew.Bits, resN2.WantedBits, int(pktNew.Header.Len))
		r.RecordANCDecode(ber)
		good := e.cfg.Redundancy.Goodput(ber)
		if good == 0 || !sinkOK {
			r.RecordLost(1)
		} else {
			r.RecordDelivered(float64(int(pktNew.Header.Len)*8) * good)
		}
	}

	r.RecordCollision(mac.OverlapFraction(e.frameLen, delta))
	// Collision slot plus N2's forwarding slot.
	r.RecordAirTime(float64((delta + e.frameLen + e.guard) + (e.frameLen + e.guard)))
}

// stepChainTraditional runs one packet of Fig. 2(b): three sequential
// clean hops under the optimal MAC.
func stepChainTraditional(e *Env, r Recorder) {
	n1, n2, n3, n4 := e.nodes[0], e.nodes[1], e.nodes[2], e.nodes[3]
	pkt := frame.NewPacket(n1.ID, n4.ID, n1.NextSeq(), e.payload())
	r.RecordAirTime(float64(3 * (e.frameLen + e.guard)))

	ok, payload := e.cleanHop(e.buildFrame(n1, pkt), topology.ChainN1, topology.ChainN2)
	if !ok {
		r.RecordLost(1)
		return
	}
	ok, payload = e.cleanHop(e.buildFrame(n2, frame.Packet{Header: pkt.Header, Payload: payload}), topology.ChainN2, topology.ChainN3)
	if !ok {
		r.RecordLost(1)
		return
	}
	ok, payload = e.cleanHop(e.buildFrame(n3, frame.Packet{Header: pkt.Header, Payload: payload}), topology.ChainN3, topology.ChainN4)
	if !ok {
		r.RecordLost(1)
		return
	}
	r.RecordDelivered(float64(len(payload) * 8))
}
