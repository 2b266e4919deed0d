package sim

import (
	"reflect"
	"testing"
)

// TestBatchedDecodeMatchesSequential sweeps every registered scenario ×
// supported scheme × registered modem, comparing the burst decode path
// (each slot's receptions gathered and run through core.DecodeBatch, the
// campaign default) against per-reception sequential Decode calls (the
// Scratch.sequentialDecodes escape hatch). Identical seeds must produce
// identical Metrics bit for bit: batching amortizes setup, it never
// changes a decode. Subtests are grouped by modem name so the CI modem
// matrix can race exactly its own cells.
func TestBatchedDecodeMatchesSequential(t *testing.T) {
	seeds := []int64{3, 44}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, modem := range []string{"msk", "dqpsk"} {
		t.Run(modem, func(t *testing.T) {
			eng := NewEngine(Config{Packets: 2, Modem: modem})
			batched := NewScratch()
			sequential := NewScratch()
			sequential.sequentialDecodes = true
			for _, sc := range Scenarios() {
				for _, scheme := range sc.Schemes() {
					for _, seed := range seeds {
						var b, s Metrics
						if err := eng.RunRecording(sc, scheme, seed, &b, batched); err != nil {
							t.Fatalf("%s/%s seed %d: batched run: %v", sc.Name(), scheme, seed, err)
						}
						if err := eng.RunRecording(sc, scheme, seed, &s, sequential); err != nil {
							t.Fatalf("%s/%s seed %d: sequential run: %v", sc.Name(), scheme, seed, err)
						}
						if !reflect.DeepEqual(b, s) {
							t.Errorf("%s/%s seed %d: batched metrics diverge from sequential decodes:\nbatched:    %+v\nsequential: %+v",
								sc.Name(), scheme, seed, b, s)
						}
					}
				}
			}
		})
	}
}

// TestPooledRunConstructionAllocs pins the per-run construction pooling:
// a warmed campaign worker re-running a scenario must allocate well under
// half of what fresh-Scratch runs do, because the nodes, decoders, RNG,
// noise source, Env shell and all sample/decode buffers come from the
// worker's pool — only the topology graph (whose construction draws from
// the run RNG) and the per-packet synthesis remain per-run.
func TestPooledRunConstructionAllocs(t *testing.T) {
	eng := NewEngine(Config{Packets: 2})
	sc := MustScenario("alice-bob")
	run := func(scratch *Scratch, seed int64) {
		var m Metrics
		if err := eng.RunRecording(sc, SchemeANC, seed, &m, scratch); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	fresh := testing.AllocsPerRun(5, func() { run(NewScratch(), 9) })
	pooled := NewScratch()
	for i := 0; i < 2; i++ {
		run(pooled, 9)
	}
	warm := testing.AllocsPerRun(5, func() { run(pooled, 9) })
	t.Logf("allocs/run: fresh scratch %.0f, warmed pool %.0f", fresh, warm)
	if warm > fresh/2 {
		t.Errorf("warmed-pool run allocates %.0f objects, fresh scratch %.0f — pooling regressed (want < half)", warm, fresh)
	}
}
