package sim

import (
	"reflect"
	"testing"
)

// TestPooledScratchAcrossCampaigns runs campaigns back to back under
// different modems and SNRs — each worker taking the Scratch an earlier
// campaign's worker returned to the pool, with its nodes, buffers and
// rotation tables — and compares every row with runs on fresh Scratches.
// A single shared Scratch carried across the campaigns' engines checks
// the same thing without relying on the pool handing an object back.
func TestPooledScratchAcrossCampaigns(t *testing.T) {
	campaigns := []struct {
		sc  Scenario
		cfg Config
	}{
		{AliceBob(), Config{Packets: 3}},
		{AliceBob(), Config{Packets: 3, Modem: "dqpsk", SNRdB: Ptr(9)}},
		{MustScenario("x-cross"), Config{Packets: 2, SNRdB: Ptr(14)}},
		{AliceBob(), Config{Packets: 3, SNRdB: Ptr(6)}},
		{MustScenario("chain-5"), Config{Packets: 2, Modem: "dqpsk"}},
	}
	seeds := []int64{5, 17, 23}
	shared := NewScratch()
	for i, c := range campaigns {
		eng := NewEngine(c.cfg)
		schemes := c.sc.Schemes()
		pooled, err := eng.Campaign(c.sc, schemes, seeds, WithWorkers(1))
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
		for si, seed := range seeds {
			for j, scheme := range schemes {
				var fresh, reused Metrics
				if err := eng.RunRecording(c.sc, scheme, seed, &fresh, NewScratch()); err != nil {
					t.Fatalf("campaign %d %s seed %d: %v", i, scheme, seed, err)
				}
				if err := eng.RunRecording(c.sc, scheme, seed, &reused, shared); err != nil {
					t.Fatalf("campaign %d %s seed %d: %v", i, scheme, seed, err)
				}
				if !reflect.DeepEqual(fresh, pooled[si][j]) || !reflect.DeepEqual(fresh, reused) {
					t.Errorf("campaign %d %s/%s seed %d: pooled or shared Scratch diverges from a fresh one:\nfresh:  %+v\npooled: %+v\nshared: %+v",
						i, c.sc.Name(), scheme, seed, fresh, pooled[si][j], reused)
				}
			}
		}
	}
}
