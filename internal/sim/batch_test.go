package sim

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/channel"
	"repro/internal/frame"
)

// TestBatchedDecodeMatchesSequential compares the burst decode path
// (each slot's receptions gathered and run through core.DecodeBatch, the
// campaign default) against per-reception sequential Decode calls (the
// Scratch.sequentialDecodes escape hatch) in every cell: batching
// amortizes setup, it never changes a decode.
func TestBatchedDecodeMatchesSequential(t *testing.T) {
	everyCellMatches(t, "sequential decodes", Config{Packets: 2}, []int64{3, 44}, func(s *Scratch) { s.sequentialDecodes = true })
}

// TestReleasedBuffersAreDead runs every cell on a Scratch that overwrites
// each sample buffer with NaN as it returns to a free list — a slot's
// frames when its step returns, a reception at release — and each
// released Result's bits and payload, and each recycled frame's bits, with
// 0xFF. A schedule that read a frame, reception or result after releasing
// it, or a frame shared across slots, would decode NaN or non-bits and
// diverge from the unpoisoned Scratch.
func TestReleasedBuffersAreDead(t *testing.T) {
	everyCellMatches(t, "poisoned releases", Config{Packets: 2}, []int64{3, 44}, func(s *Scratch) { s.poisonReleased = true })
}

// TestRecyclingMatchesReference runs every cell, under Rayleigh fading at
// five packets per run (closed-loop.rayleigh.golden's settings), on a
// Scratch that recycles no decode Result and no frame bits, and requires
// the default, recycling Scratch to match it bit for bit. Poisoning alone
// cannot prove the recycling safe: a decode that reuses a released
// Result overwrites what a stale reader would see in both runs alike.
// Against a reference that never reuses storage, a Result or frame read
// after its slot or run — a native packet a COPE router holds past its
// step, say — reads the recycled storage's new contents and diverges.
// Fading loses packets, which exercises those held-over paths.
func TestRecyclingMatchesReference(t *testing.T) {
	cfg := Config{Packets: 5}
	cfg.Topology.Fading = channel.FadingSpec{Kind: channel.FadingRayleigh}
	everyCellMatches(t, "nothing recycled", cfg, []int64{3, 5, 8, 13, 21, 34, 55, 89}, func(s *Scratch) { s.recycleNothing = true })
}

// everyCellMatches sweeps every registered scenario × supported scheme ×
// registered modem under cfg, running each seed on a default Scratch and
// on one adjusted by tweak. Identical seeds must produce identical
// Metrics bit for bit. Under -short only the first seed runs. Subtests
// are grouped by modem name so the CI modem matrix can race exactly its
// own cells.
func everyCellMatches(t *testing.T, what string, cfg Config, seeds []int64, tweak func(*Scratch)) {
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, modem := range []string{"msk", "dqpsk"} {
		t.Run(modem, func(t *testing.T) {
			cfg := cfg
			cfg.Modem = modem
			eng := NewEngine(cfg)
			base := NewScratch()
			tweaked := NewScratch()
			tweak(tweaked)
			for _, sc := range Scenarios() {
				for _, scheme := range sc.Schemes() {
					for _, seed := range seeds {
						var b, w Metrics
						if err := eng.RunRecording(sc, scheme, seed, &b, base); err != nil {
							t.Fatalf("%s/%s seed %d: default run: %v", sc.Name(), scheme, seed, err)
						}
						if err := eng.RunRecording(sc, scheme, seed, &w, tweaked); err != nil {
							t.Fatalf("%s/%s seed %d: run with %s: %v", sc.Name(), scheme, seed, what, err)
						}
						if !reflect.DeepEqual(b, w) {
							t.Errorf("%s/%s seed %d: metrics with %s diverge from the default Scratch:\ndefault: %+v\n%s: %+v",
								sc.Name(), scheme, seed, what, b, what, w)
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
// the run RNG) and the per-packet synthesis remain per-run. It pins bytes
// too: a warmed run under each scheme allocates less than two frames'
// bits per packet. Every frame it transmits is modulated into a pooled
// buffer and marshaled into its sender's recycled bit storage, and every
// decode reuses a released Result with its bits and payload storage.
// Each scheme marshals at least two frames and decodes at least two
// receptions per packet, so a per-frame marshal allocation or a
// per-decode Result allocation coming back would add at least the whole
// budget on its own.
func TestPooledRunConstructionAllocs(t *testing.T) {
	cfg := Config{Packets: 2}
	eng := NewEngine(cfg)
	sc := MustScenario("alice-bob")
	run := func(scratch *Scratch, scheme Scheme, seed int64) {
		var m Metrics
		if err := eng.RunRecording(sc, scheme, seed, &m, scratch); err != nil {
			t.Fatalf("run: %v", err)
		}
	}
	fresh := testing.AllocsPerRun(5, func() { run(NewScratch(), SchemeANC, 9) })
	pooled := NewScratch()
	for i := 0; i < 2; i++ {
		run(pooled, SchemeANC, 9)
	}
	warm := testing.AllocsPerRun(5, func() { run(pooled, SchemeANC, 9) })
	t.Logf("allocs/run: fresh scratch %.0f, warmed pool %.0f", fresh, warm)
	if warm > fresh/2 {
		t.Errorf("warmed-pool run allocates %.0f objects, fresh scratch %.0f — pooling regressed (want < half)", warm, fresh)
	}

	budget := float64(2 * cfg.Packets * frame.FrameBits(cfg.WithDefaults().PayloadBytes))
	for _, scheme := range sc.Schemes() {
		warmBytes := bytesPerRun(5, func() { run(pooled, scheme, 9) })
		t.Logf("%s: bytes/run on a warmed pool %.0f, budget (two frames' bits per packet) %.0f", scheme, warmBytes, budget)
		if warmBytes >= budget {
			t.Errorf("%s: warmed-pool run allocates %.0f bytes, not less than two frames' bits per packet (%.0f)", scheme, warmBytes, budget)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, on one P, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
