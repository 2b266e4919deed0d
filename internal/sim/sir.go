package sim

import (
	"math"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/topology"
)

// SIRPoint is one row of the Fig. 13 series: the mean BER of Alice's
// decode of Bob's packet when the received signal-to-interference ratio
// at Alice is SIR = 10·log10(P_Bob/P_Alice) (Eq. 9 — Alice's own signal
// counts as the interference because Bob's is the one she wants).
type SIRPoint struct {
	SIRdB   float64
	MeanBER float64
	Decoded int // packets that reached the BER measurement
	Lost    int // alignment/header failures
}

// sirScenario is one Fig. 13 point as an ANC-only scenario on the
// Alice–Bob topology: Bob's transmit power is scaled by sirDB against
// Alice's fixed one (§11.7), and Alice decodes Bob's packet. It is not
// registered — the registry's campaigns assume a routing baseline.
func sirScenario(sirDB float64) Scenario {
	return &simpleScenario{
		name:  "sir",
		desc:  "Fig. 13: BER at Alice versus the signal-to-interference ratio",
		build: topology.AliceBob,
		order: []Scheme{SchemeANC},
		start: map[Scheme]func(*Env) StepFunc{
			SchemeANC: func(e *Env) StepFunc { return stepSIR(e, sirDB) },
		},
	}
}

// stepSIR binds one SIR point's exchange schedule to a run. The links are
// read once, so every packet of the point sees one channel realization.
// Both uplinks use Alice's gain: Fig. 13 varies only transmit power, so
// the transmit-power ratio must equal the received-power ratio.
func stepSIR(e *Env, sirDB float64) StepFunc {
	alice, bob := e.nodes[topology.Alice], e.nodes[topology.Bob]
	upA, _ := e.graph.Link(topology.Alice, topology.Router)
	upB, _ := e.graph.Link(topology.Bob, topology.Router)
	upB.Gain = upA.Gain
	downA, _ := e.graph.Link(topology.Router, topology.Alice)
	bobScale := complex(math.Pow(10, sirDB/20), 0) // amplitude ratio
	return func(_ int, r Recorder) {
		pktA := frame.NewPacket(alice.ID, bob.ID, alice.NextSeq(), e.payload())
		pktB := frame.NewPacket(bob.ID, alice.ID, bob.NextSeq(), e.payload())
		recA := e.buildFrame(alice, pktA)
		recB := e.buildFrame(bob, pktB)
		recB.Samples.ScaleInPlace(bobScale)

		delta := e.cfg.Delay.Draw(e.rng)
		routerRx := e.receive(
			channel.Transmission{Signal: recA.Samples, Link: upA},
			channel.Transmission{Signal: recB.Samples, Link: upB, Delay: delta},
		)
		relayed := channel.AmplifyToInPlace(routerRx, 1)
		rxA := e.receive(channel.Transmission{Signal: relayed, Link: downA})
		e.release(relayed)

		e.queueANCDecode(alice, rxA, recB)
		if out := e.flushBatch()[0]; out.Err != nil {
			r.RecordLost(1)
		} else {
			r.RecordANCDecode(payloadBER(recB.Bits, out.Result.WantedBits, int(pktB.Header.Len)))
		}
		e.finishBatch()
	}
}

// SIRSweep evaluates Fig. 13 over a range of SIR values: one run of the
// SIR exchange per point, at seed, seed+1, …, on one engine and one
// buffer pool. An unregistered Config.Modem panics.
func SIRSweep(cfg Config, seed int64, fromDB, toDB, stepDB float64) []SIRPoint {
	if stepDB <= 0 {
		panic("sim: non-positive SIR step")
	}
	eng := NewEngine(cfg)
	scratch := NewScratch()
	var out []SIRPoint
	i := int64(0)
	for db := fromDB; db <= toDB+1e-9; db += stepDB {
		var m Metrics
		if err := eng.RunRecording(sirScenario(db), SchemeANC, seed+i, &m, scratch); err != nil {
			panic(err)
		}
		out = append(out, SIRPoint{SIRdB: db, MeanBER: m.MeanBER(), Decoded: len(m.BERs), Lost: m.Lost})
		i++
	}
	return out
}
