package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/mac"
)

// TestClosedLoopMatchesAliceBob pins the router's §7.5 decision at the
// defaults (static channel, 25 dB): it peeks two opposite flows in every
// collision and forwards, so the closed loop's ANC runs are alice-bob's
// bit for bit — both directions delivered, same BERs, same air time.
func TestClosedLoopMatchesAliceBob(t *testing.T) {
	seeds := make([]int64, 20)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	for _, modem := range []string{"msk", "dqpsk"} {
		t.Run(modem, func(t *testing.T) {
			eng := NewEngine(Config{Packets: 10, Modem: modem})
			want, err := eng.Campaign(AliceBob(), []Scheme{SchemeANC}, seeds)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Campaign(MustScenario("closed-loop"), []Scheme{SchemeANC}, seeds)
			if err != nil {
				t.Fatal(err)
			}
			for i, seed := range seeds {
				if !reflect.DeepEqual(got[i][0], want[i][0]) {
					t.Errorf("seed %d: closed-loop %+v != alice-bob %+v", seed, got[i][0], want[i][0])
				}
			}
		})
	}
}

// TestClosedLoopDropChargesUplinkOnly runs the closed loop at 12 dB,
// where the router sometimes cannot read both headers and drops the
// collision. Every round still accounts its two packets and one
// collision; a dropped round loses both packets and charges only the
// uplink slot, a forwarded round charges both slots.
func TestClosedLoopDropChargesUplinkOnly(t *testing.T) {
	cfg := Config{Packets: 10, SNRdB: Ptr(12)}
	eng := NewEngine(cfg)
	e := newEnvForTest(cfg, 1)
	drops := 0
	for seed := int64(1); seed <= 10; seed++ {
		var log slotLog
		if err := eng.RunRecording(MustScenario("closed-loop"), SchemeANC, seed, &log, nil); err != nil {
			t.Fatal(err)
		}
		m := log.Metrics
		if len(log.slots) != cfg.Packets || m.Delivered+m.Lost != 2*cfg.Packets || len(m.Overlaps) != cfg.Packets {
			t.Fatalf("seed %d: %d rounds, %d delivered + %d lost, %d overlaps; want %d packets over %d collisions",
				seed, len(log.slots), m.Delivered, m.Lost, len(m.Overlaps), 2*cfg.Packets, cfg.Packets)
		}
		for i, s := range log.slots {
			if len(s.overlaps) != 1 || len(s.air) != 1 {
				t.Fatalf("seed %d round %d: %d overlaps, %d air-time charges; want one of each", seed, i, len(s.overlaps), len(s.air))
			}
			delta := math.Round(float64(e.frameLen) * (1 - s.overlaps[0]))
			if mac.OverlapFraction(e.frameLen, int(delta)) != s.overlaps[0] {
				t.Fatalf("seed %d round %d: overlap %v does not invert to a delay", seed, i, s.overlaps[0])
			}
			uplink := delta + float64(e.frameLen+e.guard)
			switch s.air[0] {
			case 2 * uplink:
			case uplink:
				drops++
				if s.lost != 2 || s.delivered != 0 || s.decodes != 0 {
					t.Errorf("seed %d round %d: dropped round lost %d, delivered %d, decoded %d; want 2, 0, 0",
						seed, i, s.lost, s.delivered, s.decodes)
				}
			default:
				t.Errorf("seed %d round %d: charged %v samples; want the uplink slot %v or both slots %v",
					seed, i, s.air[0], uplink, 2*uplink)
			}
		}
	}
	if drops == 0 {
		t.Error("the router forwarded every round at 12 dB; the drop path went untested")
	}
}

// slotLog is a Recorder that also keeps each schedule slot's events
// apart, so a test can see what one round charged.
type slotLog struct {
	Metrics
	slots []slotEvents
}

type slotEvents struct {
	air, overlaps            []float64
	lost, delivered, decodes int
}

func (l *slotLog) cur() *slotEvents { return &l.slots[len(l.slots)-1] }

func (l *slotLog) RecordLinkState(slot, from, to int, powerGain float64) {
	for len(l.slots) <= slot {
		l.slots = append(l.slots, slotEvents{})
	}
}

func (l *slotLog) RecordDelivered(bits float64) {
	l.Metrics.RecordDelivered(bits)
	l.cur().delivered++
}

func (l *slotLog) RecordLost(n int) {
	l.Metrics.RecordLost(n)
	l.cur().lost += n
}

func (l *slotLog) RecordANCDecode(ber float64) {
	l.Metrics.RecordANCDecode(ber)
	l.cur().decodes++
}

func (l *slotLog) RecordCollision(overlap float64) {
	l.Metrics.RecordCollision(overlap)
	l.cur().overlaps = append(l.cur().overlaps, overlap)
}

func (l *slotLog) RecordAirTime(samples float64) {
	l.Metrics.RecordAirTime(samples)
	l.cur().air = append(l.cur().air, samples)
}
