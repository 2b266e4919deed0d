package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/channel"
	"repro/internal/frame"
	"repro/internal/topology"
)

// referenceSIRPoint is the hand-written Fig. 13 loop that the SIR
// scenario replaced: a private Env per point, frames built through
// Node.BuildFrame, receptions synthesized with the allocating channel
// helpers and decoded one at a time. It is the reference the engine port
// must match bit for bit.
func referenceSIRPoint(cfg Config, seed int64, sirDB float64) SIRPoint {
	e := newEnv(cfg, seed, topology.AliceBob, nil)
	alice, bob := e.nodes[0], e.nodes[2]
	upA, _ := e.graph.Link(topology.Alice, topology.Router)
	upB, _ := e.graph.Link(topology.Bob, topology.Router)
	upB.Gain = upA.Gain
	bobScale := math.Pow(10, sirDB/20)

	pt := SIRPoint{SIRdB: sirDB}
	var sum float64
	for i := 0; i < e.cfg.Packets; i++ {
		pktA := frame.NewPacket(alice.ID, bob.ID, alice.NextSeq(), e.payload())
		pktB := frame.NewPacket(bob.ID, alice.ID, bob.NextSeq(), e.payload())
		recA := alice.BuildFrame(pktA)
		recB := bob.BuildFrame(pktB)
		scaledB := recB.Samples.Scale(complex(bobScale, 0))

		delta := e.cfg.Delay.Draw(e.rng)
		routerRx := channel.Receive(e.noise(), e.tailPad,
			channel.Transmission{Signal: recA.Samples, Link: upA},
			channel.Transmission{Signal: scaledB, Link: upB, Delay: delta},
		)
		relayed := channel.AmplifyTo(routerRx, 1)
		downA, _ := e.graph.Link(topology.Router, topology.Alice)
		rxA := channel.Receive(e.noise(), e.tailPad,
			channel.Transmission{Signal: relayed, Link: downA})

		res, err := alice.Receive(rxA)
		if err != nil {
			pt.Lost++
			continue
		}
		sum += payloadBER(recB.Bits, res.WantedBits, int(pktB.Header.Len))
		pt.Decoded++
	}
	if pt.Decoded > 0 {
		pt.MeanBER = sum / float64(pt.Decoded)
	}
	return pt
}

// TestSIRSweepMatchesReference pins the engine port of Fig. 13 to the
// loop it replaced: every point's counts are equal and its mean BER has
// the same bits, under both modems, a static and a Rayleigh channel, two
// SNRs and two seeds.
func TestSIRSweepMatchesReference(t *testing.T) {
	for _, modem := range []string{"msk", "dqpsk"} {
		for _, fading := range []channel.FadingKind{channel.FadingStatic, channel.FadingRayleigh} {
			for _, snr := range []float64{25, 9} {
				for _, seed := range []int64{3, 11} {
					cfg := Config{Packets: 4, Modem: modem, SNRdB: Ptr(snr)}
					cfg.Topology.Fading = channel.FadingSpec{Kind: fading}
					name := fmt.Sprintf("%s/%v/%gdB/seed%d", modem, fading, snr, seed)
					var want []SIRPoint
					for db := -6.0; db <= 6; db++ {
						want = append(want, referenceSIRPoint(cfg, seed+int64(len(want)), db))
					}
					got := SIRSweep(cfg, seed, -6, 6, 1)
					if len(got) != len(want) {
						t.Fatalf("%s: %d points, reference %d", name, len(got), len(want))
					}
					for i, p := range got {
						w := want[i]
						if p.SIRdB != w.SIRdB || p.Decoded != w.Decoded || p.Lost != w.Lost ||
							math.Float64bits(p.MeanBER) != math.Float64bits(w.MeanBER) {
							t.Errorf("%s point %d: %+v, reference %+v", name, i, p, w)
						}
					}
				}
			}
		}
	}
}
