package sim

import (
	"reflect"
	"runtime"
	"slices"
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

// TestScratchStackAcrossGoroutines puts a Scratch from one goroutine and
// takes it from another: the list hands back that same Scratch. (A
// sync.Pool keeps a put item in the putting P's private slot, which a
// worker running on another P cannot take.)
func TestScratchStackAcrossGoroutines(t *testing.T) {
	var p scratchStack
	s := NewScratch()
	put := make(chan struct{})
	go func() {
		defer close(put)
		p.put(s)
	}()
	<-put
	got := make(chan *Scratch)
	go func() { got <- p.get() }()
	if g := <-got; g != s {
		t.Error("another goroutine took a fresh Scratch instead of the one put")
	}
}

// TestScratchStackCap puts more Scratches than GOMAXPROCS: the list keeps
// the first GOMAXPROCS, hands them back last in first out, and then
// builds fresh ones.
func TestScratchStackCap(t *testing.T) {
	var p scratchStack
	limit := runtime.GOMAXPROCS(0)
	put := make([]*Scratch, limit+2)
	for i := range put {
		put[i] = NewScratch()
		p.put(put[i])
	}
	if len(p.free) != limit {
		t.Fatalf("the list keeps %d Scratches, want GOMAXPROCS = %d", len(p.free), limit)
	}
	for i := limit - 1; i >= 0; i-- {
		if p.get() != put[i] {
			t.Fatalf("take %d: not the Scratch put %d-th", limit-i, i)
		}
	}
	if s := p.get(); slices.Contains(put, s) {
		t.Error("an empty list handed back a Scratch it should have dropped")
	}
}
