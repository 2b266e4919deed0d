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

// xTopo is the Fig. 11 "X": two flows crossing at a center router, with
// the destinations learning the interfering packet by overhearing.
var xTopo = &simpleScenario{
	name:  "x",
	desc:  "Fig. 11 X topology: two flows cross at a router; destinations overhear",
	build: topology.X,
	order: []Scheme{SchemeANC, SchemeRouting, SchemeCOPE},
	start: map[Scheme]func(*Env) StepFunc{
		SchemeANC:     func(e *Env) StepFunc { return func(i int, r Recorder) { stepXANC(e, r) } },
		SchemeRouting: func(e *Env) StepFunc { return func(i int, r Recorder) { stepXTraditional(e, r) } },
		SchemeCOPE:    func(e *Env) StepFunc { return func(i int, r Recorder) { stepXCOPE(e, r) } },
	},
}

func init() { Register(xTopo) }

// XTopo returns the registered Fig. 11 scenario.
func XTopo() Scenario { return xTopo }

// stepXANC runs one cycle of the "X" under ANC: N1→N4 and N3→N2 transmit
// simultaneously; N2 overhears N1 (through a good side link, but
// corrupted by N3's concurrent weak cross-path signal) and N4 overhears
// N3 symmetrically. The center router N5 amplifies and broadcasts the
// interfered signal; each destination cancels the overheard packet to
// recover the one it wants.
//
// Overhearing is best-effort: if the overheard header decodes, the
// recovered bits are used for cancellation even when the payload carried
// errors — which is what produces the elevated-BER tail of Fig. 10(b).
// If the overheard header fails, the destination cannot decode at all and
// its packet is lost (§11.5's "packet losses in overhearing"). The
// schedule addresses nodes through the topology.X* indices, so it applies
// to any graph whose first five nodes follow that layout (topology.XCross
// reuses it).
func stepXANC(e *Env, r Recorder) {
	n1, n2, n3, n4 := e.nodes[topology.X1], e.nodes[topology.X2], e.nodes[topology.X3], e.nodes[topology.X4]
	pkt1 := frame.NewPacket(n1.ID, n4.ID, n1.NextSeq(), e.payload()) // N1 → N4
	pkt3 := frame.NewPacket(n3.ID, n2.ID, n3.NextSeq(), e.payload()) // N3 → N2
	rec1 := e.buildFrame(n1, pkt1)
	rec3 := e.buildFrame(n3, pkt3)

	delta := e.cfg.Delay.Draw(e.rng)
	d1, d3 := 0, delta
	if e.rng.Intn(2) == 1 {
		d1, d3 = delta, 0
	}

	// Slot 1: simultaneous uplinks. The router hears both strongly;
	// each destination overhears its neighbor plus the weak cross
	// interference from the other sender.
	up1, _ := e.graph.Link(topology.X1, topology.XRouter)
	up3, _ := e.graph.Link(topology.X3, topology.XRouter)
	routerRx := e.receive(
		channel.Transmission{Signal: rec1.Samples, Link: up1, Delay: d1},
		channel.Transmission{Signal: rec3.Samples, Link: up3, Delay: d3},
	)

	over12, _ := e.graph.Link(topology.X1, topology.X2)
	cross32, _ := e.graph.Link(topology.X3, topology.X2)
	snoopN2 := e.receive(
		channel.Transmission{Signal: rec1.Samples, Link: over12, Delay: d1},
		channel.Transmission{Signal: rec3.Samples, Link: cross32, Delay: d3},
	)
	over34, _ := e.graph.Link(topology.X3, topology.X4)
	cross14, _ := e.graph.Link(topology.X1, topology.X4)
	snoopN4 := e.receive(
		channel.Transmission{Signal: rec3.Samples, Link: over34, Delay: d3},
		channel.Transmission{Signal: rec1.Samples, Link: cross14, Delay: d1},
	)
	e.overhear(n2, snoopN2)
	e.overhear(n4, snoopN4)
	e.release(snoopN2)
	e.release(snoopN4)

	// Slot 2: the router amplifies and broadcasts; destinations
	// cancel what they overheard. The amplification reuses the reception
	// buffer in place.
	relayed := channel.AmplifyToInPlace(routerRx, 1)
	downTo2, _ := e.graph.Link(topology.XRouter, topology.X2)
	downTo4, _ := e.graph.Link(topology.XRouter, topology.X4)
	rxN2 := e.receive(channel.Transmission{Signal: relayed, Link: downTo2})
	rxN4 := e.receive(channel.Transmission{Signal: relayed, Link: downTo4})
	e.release(relayed)

	// Both destinations' decodes run as one burst (the overhears above
	// already stored their cancellation references).
	e.queueANCDecode(n2, rxN2, rec3)
	e.queueANCDecode(n4, rxN4, rec1)
	e.flushANCDecodes(r)

	r.RecordCollision(mac.OverlapFraction(e.frameLen, delta))
	r.RecordAirTime(float64(2 * (delta + e.frameLen + e.guard)))
}

// stepXTraditional routes both flows through the center router with four
// sequential transmissions per packet pair.
func stepXTraditional(e *Env, r Recorder) {
	n1, n2, n3, n4, router := e.nodes[topology.X1], e.nodes[topology.X2], e.nodes[topology.X3], e.nodes[topology.X4], e.nodes[topology.XRouter]
	pkt1 := frame.NewPacket(n1.ID, n4.ID, n1.NextSeq(), e.payload())
	pkt3 := frame.NewPacket(n3.ID, n2.ID, n3.NextSeq(), e.payload())
	e.traditionalRelay(r, n1, router, n4, pkt1, topology.X1, topology.XRouter, topology.X4)
	e.traditionalRelay(r, n3, router, n2, pkt3, topology.X3, topology.XRouter, topology.X2)
}

// stepXCOPE runs one cycle of digital network coding over the "X":
// sequential uplinks (so overhearing is interference free — the
// idealization the paper grants COPE), then one XOR broadcast decoded
// against the overheard packets.
func stepXCOPE(e *Env, r Recorder) {
	n1, n2, n3, n4, router := e.nodes[topology.X1], e.nodes[topology.X2], e.nodes[topology.X3], e.nodes[topology.X4], e.nodes[topology.XRouter]
	pkt1 := frame.NewPacket(n1.ID, n4.ID, n1.NextSeq(), e.payload())
	pkt3 := frame.NewPacket(n3.ID, n2.ID, n3.NextSeq(), e.payload())
	rec1 := e.buildFrame(n1, pkt1)
	rec3 := e.buildFrame(n3, pkt3)

	// Slot 1: N1's uplink; N2 snoops it cleanly.
	r.RecordAirTime(float64(e.frameLen + e.guard))
	ok1, got1 := e.cleanHop(rec1, topology.X1, topology.XRouter)
	over12, _ := e.graph.Link(topology.X1, topology.X2)
	snoopRx2 := e.receive(channel.Transmission{Signal: rec1.Samples, Link: over12, Delay: cleanLead})
	resSnoop2, errSnoop2 := e.overhear(n2, snoopRx2)
	e.release(snoopRx2)
	snoop2OK := errSnoop2 == nil && resSnoop2.BodyOK

	// Slot 2: N3's uplink; N4 snoops.
	r.RecordAirTime(float64(e.frameLen + e.guard))
	ok3, got3 := e.cleanHop(rec3, topology.X3, topology.XRouter)
	over34, _ := e.graph.Link(topology.X3, topology.X4)
	snoopRx4 := e.receive(channel.Transmission{Signal: rec3.Samples, Link: over34, Delay: cleanLead})
	resSnoop4, errSnoop4 := e.overhear(n4, snoopRx4)
	e.release(snoopRx4)
	snoop4OK := errSnoop4 == nil && resSnoop4.BodyOK

	if !ok1 || !ok3 {
		r.RecordLost(2)
		return
	}
	coded, err := cope.Encode(router.ID, router.NextSeq(), frame.Packet{Header: pkt1.Header, Payload: got1}, frame.Packet{Header: pkt3.Header, Payload: got3})
	if err != nil {
		r.RecordLost(2)
		return
	}

	// Slot 3: XOR broadcast.
	r.RecordAirTime(float64(e.frameLen + e.guard))
	rec := e.buildFrame(router, coded)
	okTo2, codedAt2 := e.cleanHop(rec, topology.XRouter, topology.X2)
	okTo4, codedAt4 := e.cleanHop(rec, topology.XRouter, topology.X4)
	var known2, known4 []byte
	if snoop2OK {
		known2 = resSnoop2.Packet.Payload
	}
	if snoop4OK {
		known4 = resSnoop4.Packet.Payload
	}
	e.accountCOPEDecode(r, okTo2 && snoop2OK, codedAt2, coded.Header, known2, pkt3.Payload)
	e.accountCOPEDecode(r, okTo4 && snoop4OK, codedAt4, coded.Header, known4, pkt1.Payload)
}

// overhear is n.Overhear with the Result living until the slot's step
// returns (Scratch.endSlot).
func (e *Env) overhear(n *radio.Node, rx dsp.Signal) (*core.Result, error) {
	res, err := n.Overhear(rx)
	e.scratch.releaseAtSlotEnd(res)
	return res, err
}
