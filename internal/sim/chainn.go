package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/topology"
)

// NewChainN generalizes the Fig. 2 chain to an arbitrary hop count: a
// line of hops+1 nodes, one unidirectional flow from the head to the
// sink. Under ANC the steady state alternates even- and odd-indexed
// transmitters, so every interior node receives its next packet as a
// collision with the downstream forward it already knows — one packet
// delivered per two slots regardless of length, versus one per hops
// slots for sequential routing: the 3→2 reduction of §2(b) becomes
// hops→2, and the gain grows with the chain.
//
// hops = 3 is the registered "chain" scenario's structure (kept separate
// so the Fig. 12 goldens stay untouched); the registry ships chain-5.
func NewChainN(hops int) Scenario {
	if hops < 3 {
		panic(fmt.Sprintf("sim: NewChainN needs hops ≥ 3, got %d", hops))
	}
	n := hops + 1
	return &simpleScenario{
		name:  fmt.Sprintf("chain-%d", hops),
		desc:  fmt.Sprintf("Fig. 2 generalized to %d hops: ANC pipelines the whole chain into 2 slots/packet", hops),
		build: chainNBuild(n),
		order: []Scheme{SchemeANC, SchemeRouting},
		start: map[Scheme]func(*Env) StepFunc{
			SchemeANC:     func(e *Env) StepFunc { return func(i int, r Recorder) { stepChainNANC(e, r, n, i) } },
			SchemeRouting: func(e *Env) StepFunc { return func(i int, r Recorder) { stepChainNTraditional(e, r, n) } },
		},
	}
}

// chainNBuild connects n nodes in a line, adjacent pairs only — like
// topology.Chain, nodes two hops apart are out of range.
func chainNBuild(n int) func(topology.Config, *rand.Rand) *topology.Graph {
	return func(cfg topology.Config, rng *rand.Rand) *topology.Graph {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("n%d", i+1)
		}
		g := topology.New(n, names, cfg, rng)
		for i := 0; i+1 < n; i++ {
			g.ConnectBoth(i, i+1, cfg.MeanPowerGain, cfg.GainJitterDB, rng)
		}
		return g
	}
}

// stepChainNANC runs one steady-state cycle of the alternating schedule:
// even-indexed nodes transmit in slot A, odd-indexed in slot B, and one
// packet reaches the sink per cycle. Each interior node j ≤ n−3 receives
// its upstream neighbor's fresh packet superposed with the downstream
// neighbor's simultaneous forward of a packet j itself forwarded one
// cycle earlier — the known signal it cancels (the Fig. 2(c) trick at
// every pipeline stage at once). The last interior node and the sink
// have no transmitting downstream neighbor, so their receptions are
// clean; as in the 3-hop scenario, only the sink's clean hop is
// simulated.
//
// Delivery is the conjunction of the whole pipeline: the delivered
// packet's goodput is discounted by the FEC charge of every interference
// decode it traversed, and any failed stage loses it.
func stepChainNANC(e *Env, r Recorder, n, i int) {
	sink := n - 1
	src := e.nodes[0]
	good := 1.0
	ok := true
	// Every packet in the pipeline carries the flow's (src, sink)
	// addresses, so sequence numbers are what tells a receiver's
	// sent-buffer lookup the known packet from the wanted one. Assign
	// them explicitly per cycle and pipeline stage — per-node counters
	// collide across stages.
	seq := func(k int) uint32 { return uint32(1000 + i*2*n + k) }
	// Largest start offset among each slot's concurrent transmissions:
	// that is the span a receiver-side throughput measurement charges.
	maxDeltaA, maxDeltaB := -1, -1
	for j := 1; j <= n-3; j++ {
		fresh := frame.NewPacket(src.ID, e.nodes[sink].ID, seq(2*j), e.payload())
		recFresh := e.buildFrame(e.nodes[j-1], fresh)
		known := frame.NewPacket(src.ID, e.nodes[sink].ID, seq(2*j+1), e.payload())
		recKnown := e.buildFrame(e.nodes[j+1], known)
		e.nodes[j].Remember(recKnown)

		delta := e.cfg.Delay.Draw(e.rng)
		dFresh, dKnown := 0, delta
		if e.rng.Intn(2) == 1 {
			dFresh, dKnown = delta, 0
		}
		linkUp, _ := e.graph.Link(j-1, j)
		linkDown, _ := e.graph.Link(j+1, j)
		rx := e.receive(
			channel.Transmission{Signal: recFresh.Samples, Link: linkUp, Delay: dFresh},
			channel.Transmission{Signal: recKnown.Samples, Link: linkDown, Delay: dKnown},
		)
		e.queueANCDecode(e.nodes[j], rx, recFresh)
		r.RecordCollision(mac.OverlapFraction(e.frameLen, delta))
		// Collisions at odd j happen while the even nodes transmit
		// (slot A); at even j, while the odd nodes do (slot B).
		if j%2 == 1 {
			maxDeltaA = max(maxDeltaA, delta)
		} else {
			maxDeltaB = max(maxDeltaB, delta)
		}
	}

	// Flush the whole pipeline's decode burst — every stage's collision
	// decodes in one pass — before the sink packet below draws from the
	// run RNG. Decodes consume no randomness, so the flush position does
	// not move any draw relative to the sequential schedule.
	out := e.flushBatch()
	b := &e.scratch.batch
	for k := range out {
		res, err := out[k].Result, out[k].Err
		if err != nil {
			ok = false
			continue
		}
		wanted := b.wanted[k]
		ber := payloadBER(wanted.Bits, res.WantedBits, int(wanted.Packet.Header.Len))
		r.RecordANCDecode(ber)
		good *= e.cfg.Redundancy.Goodput(ber)
	}
	e.finishBatch()

	// The sink's reception: its upstream neighbor transmits with no one
	// downstream to collide with.
	last := frame.NewPacket(src.ID, e.nodes[sink].ID, seq(0), e.payload())
	sinkOK, _ := e.cleanHop(e.buildFrame(e.nodes[n-2], last), n-2, sink)

	if !ok || good == 0 || !sinkOK {
		r.RecordLost(1)
	} else {
		r.RecordDelivered(float64(int(last.Header.Len)*8) * good)
	}

	// Two slots per delivered packet, however long the chain. A slot
	// with a collision spans its largest start offset plus the frame; a
	// collision-free slot (slot B of the 3-hop chain) is one clean
	// transmission.
	spanA, spanB := e.frameLen+e.guard, e.frameLen+e.guard
	if maxDeltaA >= 0 {
		spanA += maxDeltaA
	}
	if maxDeltaB >= 0 {
		spanB += maxDeltaB
	}
	r.RecordAirTime(float64(spanA + spanB))
}

// stepChainNTraditional delivers one packet over n−1 sequential clean
// hops under the optimal MAC, the Fig. 2(b) schedule at any length.
func stepChainNTraditional(e *Env, r Recorder, n int) {
	src, sink := e.nodes[0], e.nodes[n-1]
	pkt := frame.NewPacket(src.ID, sink.ID, src.NextSeq(), e.payload())
	r.RecordAirTime(float64((n - 1) * (e.frameLen + e.guard)))

	payload := pkt.Payload
	rec := e.buildFrame(src, pkt)
	for hop := 0; hop+1 < n; hop++ {
		ok, p := e.cleanHop(rec, hop, hop+1)
		if !ok {
			r.RecordLost(1)
			return
		}
		payload = p
		if hop+2 < n {
			rec = e.buildFrame(e.nodes[hop+1], frame.Packet{Header: pkt.Header, Payload: payload})
		}
	}
	r.RecordDelivered(float64(len(payload) * 8))
}

func init() { Register(NewChainN(5)) }
