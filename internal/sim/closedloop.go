package sim

import (
	"repro/internal/frame"
	"repro/internal/radio"
	"repro/internal/topology"
)

// closedLoop is the Fig. 1 exchange with the router deciding for itself
// (§7.5): alice-bob's topology and schedules, except that the ANC router
// peeks at the headers it can reach in the collision and amplifies and
// forwards only when they name two opposite flows. The §7.6 triggers
// make both endpoints transmit together, as in alice-bob. When the
// router forwards, the exchange is alice-bob's bit for bit; when it
// drops, both packets are lost and only the uplink slot is charged.
var closedLoop = &simpleScenario{
	name:  "closed-loop",
	desc:  "Alice–Bob where the router forwards a collision only after peeking two opposite flows (§7.5)",
	build: topology.AliceBob,
	order: []Scheme{SchemeANC, SchemeRouting, SchemeCOPE},
	start: closedLoopSchedules(),
}

func init() { Register(closedLoop) }

// closedLoopSchedules is aliceBobSchedules with the router's §7.5
// decision in the ANC schedule.
func closedLoopSchedules() map[Scheme]func(*Env) StepFunc {
	s := aliceBobSchedules()
	s[SchemeANC] = func(e *Env) StepFunc {
		return func(i int, r Recorder) {
			stepClosedLoopANC(e, r, topology.Alice, topology.Router, topology.Bob)
		}
	}
	return s
}

// stepClosedLoopANC is one trigger round: the triggered uplinks collide
// at the router, which classifies the collision from the signal alone.
// It relays only on ActionAmplifyForward. The router never sends in this
// schedule, so it knows no packet and never chooses ActionDecode; any
// other decision drops the reception, losing both packets.
func stepClosedLoopANC(e *Env, r Recorder, ai, ri, bi int) {
	up := triggeredUplinks(e, ai, ri, bi)
	if e.nodes[ri].DecideRouter(up.routerRx, opposite) == radio.ActionAmplifyForward {
		relayANC(e, r, up)
		return
	}
	e.release(up.routerRx)
	r.RecordLost(2)
	e.RecordOverlap(r, up.delta)
	e.ChargeCollisionSlots(r, 1, up.delta)
}

// opposite is the router's §7.5 flow test for the two-way relay: two
// packets whose source and destination are each other's endpoints.
func opposite(a, b frame.Header) bool {
	return a.Src == b.Dst && a.Dst == b.Src && a.Src != b.Src
}
