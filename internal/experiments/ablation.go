package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/mac"
	"repro/internal/msk"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file holds the ablation studies DESIGN.md commits to: they
// quantify the design choices the reproduction makes beyond the paper's
// letter — the matcher refinements, the amplitude estimator, the
// subtraction strawman §6 rejects, and the overlap/throughput trade-off.

// AblationMatcher measures the Alice–Bob BER with each matcher refinement
// disabled in turn, against the full decoder. The refinements are this
// implementation's additions on top of the paper's per-sample matching:
// conditioning weights, the MSK step prior, and branch continuity.
func AblationMatcher(opts Options) string {
	opts = opts.withDefaults()
	variants := []struct {
		name  string
		tweak func(*core.Config)
	}{
		{"full decoder", nil},
		{"no conditioning weights", func(c *core.Config) { c.NoConditioningWeights = true }},
		{"no MSK prior", func(c *core.Config) { c.NoMSKPrior = true }},
		{"no branch continuity", func(c *core.Config) { c.NoBranchContinuity = true }},
		{"paper-literal matcher", func(c *core.Config) {
			c.NoConditioningWeights = true
			c.NoMSKPrior = true
			c.NoBranchContinuity = true
		}},
	}
	var b strings.Builder
	b.WriteString("== Ablation: interference matcher refinements (Alice–Bob BER) ==\n")
	fmt.Fprintf(&b, "# %-26s %-12s %s\n", "variant", "mean BER", "lost")
	scratch := sim.NewScratch()
	for _, v := range variants {
		cfg := opts.Sim
		cfg.DecoderTweak = v.tweak
		eng := sim.NewEngine(cfg)
		// One running BER sum over every decode of every run.
		var berSum, meanBER float64
		var decodes, lost int
		for run := 0; run < opts.Runs; run++ {
			var m sim.Metrics
			if err := eng.RunRecording(sim.AliceBob(), sim.SchemeANC, opts.Seed+int64(run)*127, &m, scratch); err != nil {
				panic(err)
			}
			for _, ber := range m.BERs {
				berSum += ber
			}
			decodes += len(m.BERs)
			lost += m.Lost
		}
		if decodes > 0 {
			meanBER = berSum / float64(decodes)
		}
		fmt.Fprintf(&b, "%-28s %-12.5f %d\n", v.name, meanBER, lost)
	}
	return b.String()
}

// subtractDecode is the strawman §6 rejects: reconstruct the known
// signal's received version from a channel estimate and subtract it, then
// demodulate the residual with standard MSK. The estimate ĥ is the true
// complex gain at the packet start — the best any head-based estimator
// could do — but it cannot track the residual carrier drift across the
// packet, which is exactly the fragility the paper calls out.
func subtractDecode(m *msk.Modem, rx dsp.Signal, known dsp.Signal, h complex128) []byte {
	residual := make(dsp.Signal, len(rx))
	for i := range rx {
		if i < len(known) {
			residual[i] = rx[i] - h*known[i]
		} else {
			residual[i] = rx[i]
		}
	}
	return m.Demodulate(residual)
}

// pairDecode runs the paper's phase-pair algorithm on the same synthetic
// mixture, with ground-truth alignment and amplitudes supplied, so the
// comparison isolates the decoding rule itself.
func pairDecode(m *msk.Modem, rx dsp.Signal, knownDiffs []float64, a, bAmp float64) []byte {
	sps := m.SamplesPerSymbol()
	n := len(knownDiffs)
	diffs := make([]float64, n)
	prev := core.SolvePhases(rx[0], a, bAmp)
	for i := 0; i < n && i+1 < len(rx); i++ {
		cur := core.SolvePhases(rx[i+1], a, bAmp)
		bestErr := math.Inf(1)
		for x := 0; x < 2; x++ {
			for y := 0; y < 2; y++ {
				e := math.Abs(dsp.WrapPhase(cur[x].Theta - prev[y].Theta - knownDiffs[i]))
				if e < bestErr {
					bestErr = e
					diffs[i] = dsp.WrapPhase(cur[x].Phi - prev[y].Phi)
				}
			}
		}
		prev = cur
	}
	out := make([]byte, n/sps)
	for j := range out {
		var acc float64
		for k := 0; k < sps; k++ {
			acc += diffs[j*sps+k]
		}
		if acc >= 0 {
			out[j] = 1
		}
	}
	return out
}

// AblationSubtraction compares the phase-pair decoder against naive
// channel-estimate-and-subtract across residual carrier offsets. At zero
// offset subtraction is exact; with realistic oscillator drift it falls
// apart while the differential method barely notices — the §6 robustness
// argument, measured.
func AblationSubtraction(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	m := msk.New()
	const nbits = 1500
	var b strings.Builder
	b.WriteString("== Ablation: phase-pair decoding vs naive subtraction (§6) ==\n")
	fmt.Fprintf(&b, "# %-22s %-16s %s\n", "CFO (rad/sample)", "subtraction BER", "phase-pair BER")
	for _, cfo := range []float64{0, 0.0005, 0.002, 0.005, 0.02} {
		var subErr, pairErr float64
		const trials = 5
		for trial := 0; trial < trials; trial++ {
			knownBits := randBits(rng, nbits)
			wantedBits := randBits(rng, nbits)
			known := m.Modulate(knownBits)
			wanted := m.Modulate(wantedBits)
			// The known component drifts by a CFO the subtraction method
			// cannot see; the wanted one has its own offset. Both signals
			// fully overlap.
			phase := rng.Float64() * 2 * math.Pi
			drift := channel.Link{Gain: 1, Phase: phase, FreqOffset: cfo}
			other := channel.Link{Gain: 0.9, Phase: rng.Float64() * 2 * math.Pi, FreqOffset: -0.004}
			rx := dsp.NewNoiseSource(1e-3, seed+int64(trial)).
				AddTo(drift.Apply(known).Add(other.Apply(wanted)))

			// Oracle start-of-packet channel estimate — better than any
			// real head-based estimator could produce.
			h := dsp.Cis(phase)
			subErr += bits.BER(wantedBits, subtractDecode(m, rx, known, h))
			pairErr += bits.BER(wantedBits, pairDecode(m, rx, m.PhaseDiffs(knownBits), 1, 0.9))
		}
		fmt.Fprintf(&b, "%-24.4f %-16.5f %.5f\n", cfo, subErr/trials, pairErr/trials)
	}
	return b.String()
}

// AblationOverlap sweeps the mean packet overlap and reports the Alice–Bob
// throughput gain — the §11.4 explanation ("practical gains are lower
// because packets only overlap 80% on average"), measured.
func AblationOverlap(opts Options) string {
	opts = opts.withDefaults()
	base := opts.Sim.WithDefaults()
	L := base.FrameSamples()
	var b strings.Builder
	b.WriteString("== Ablation: throughput gain vs mean packet overlap ==\n")
	fmt.Fprintf(&b, "# %-12s %-14s %s\n", "overlap", "gain/routing", "mean BER")
	for _, target := range []float64{0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5} {
		cfg := opts.Sim
		// Mean delay = (1−overlap)·L, split between the enforced minimum
		// and the slotted random part. Very high overlap targets force
		// the minimum separation below the pilot+header safety margin;
		// the resulting decode losses are part of what this ablation
		// shows (the paper's protocol *enforces* incomplete overlap for
		// this reason, §7.2).
		meanDelay := (1 - target) * float64(L)
		minSep := base.Delay.MinSeparation
		if float64(minSep) > meanDelay*0.8 {
			minSep = int(meanDelay * 0.8)
		}
		slotPart := meanDelay - float64(minSep)
		if slotPart < 0 {
			slotPart = 0
		}
		slot := int(slotPart * 2 / 31)
		cfg.Delay = mac.DelayConfig{MinSeparation: minSep, Slots: 32, SlotSamples: slot}
		eng := sim.NewEngine(cfg)
		scratch := sim.NewScratch()
		var gain, ber float64
		for run := 0; run < opts.Runs; run++ {
			seed := opts.Seed + int64(run)*31
			var a, t sim.Metrics
			if err := eng.RunRecording(sim.AliceBob(), sim.SchemeANC, seed, &a, scratch); err != nil {
				panic(err)
			}
			if err := eng.RunRecording(sim.AliceBob(), sim.SchemeRouting, seed, &t, scratch); err != nil {
				panic(err)
			}
			gain += stats.GainRatio(a.Throughput(), t.Throughput())
			ber += a.MeanBER()
		}
		fmt.Fprintf(&b, "%-14.2f %-14.3f %.5f\n", target, gain/float64(opts.Runs), ber/float64(opts.Runs))
	}
	return b.String()
}

// AblationEstimator compares the paper's moment-based amplitude estimator
// (Eqs. 5/6) against the envelope-quantile estimator across relative
// carrier offsets, reporting mean relative amplitude error. It shows why
// the implementation keeps both: the moments need the inter-signal phase
// to sweep (CFO > 0), the envelope method does not.
func AblationEstimator(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	m := msk.New()
	var b strings.Builder
	b.WriteString("== Ablation: amplitude estimators vs relative carrier offset ==\n")
	fmt.Fprintf(&b, "# %-22s %-18s %s\n", "rel CFO (rad/sample)", "moments err", "envelope err")
	const trueA, trueB = 1.0, 0.6
	for _, cfo := range []float64{0, 0.001, 0.003, 0.01, 0.03} {
		var momErr, envErr float64
		const trials = 8
		for trial := 0; trial < trials; trial++ {
			sa := m.Modulate(randBits(rng, 2500))
			sb := msk.New(msk.WithAmplitude(trueB)).Modulate(randBits(rng, 2500))
			rot := channel.Link{Gain: 1, Phase: rng.Float64() * 2 * math.Pi, FreqOffset: cfo}
			mix := sa.Add(rot.Apply(sb))
			if est, err := core.EstimateAmplitudes(mix); err == nil {
				momErr += (math.Abs(est.A-trueA)/trueA + math.Abs(est.B-trueB)/trueB) / 2
			} else {
				momErr += 1
			}
			if est, err := core.EstimateAmplitudesEnvelope(mix); err == nil {
				envErr += (math.Abs(est.A-trueA)/trueA + math.Abs(est.B-trueB)/trueB) / 2
			} else {
				envErr += 1
			}
		}
		fmt.Fprintf(&b, "%-24.4f %-18.4f %.4f\n", cfo, momErr/trials, envErr/trials)
	}
	return b.String()
}

func randBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}
