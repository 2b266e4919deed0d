package msk

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bits"
	"repro/internal/dsp"
)

func randomBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func TestModulateDemodulateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sps := range []int{1, 2, 4, 8} {
		m := New(WithSamplesPerSymbol(sps))
		for trial := 0; trial < 20; trial++ {
			in := randomBits(rng, 1+rng.Intn(500))
			got := m.Demodulate(m.Modulate(in))
			if !bits.Equal(in, got) {
				t.Fatalf("sps=%d trial=%d: round trip failed", sps, trial)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	m := New()
	f := func(data []byte) bool {
		in := make([]byte, len(data))
		for i, d := range data {
			in[i] = d & 1
		}
		return bits.Equal(in, m.Demodulate(m.Modulate(in)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstantEnvelope(t *testing.T) {
	// §5.2: the amplitude of the transmitted MSK signal is constant. This
	// property is what the §7.1 interference detector depends on.
	m := New(WithAmplitude(2.5))
	s := m.Modulate(randomBits(rand.New(rand.NewSource(2)), 300))
	for i, v := range s {
		if math.Abs(cmplx.Abs(v)-2.5) > 1e-9 {
			t.Fatalf("sample %d magnitude %v, want 2.5", i, cmplx.Abs(v))
		}
	}
}

func TestChannelInvariance(t *testing.T) {
	// Eq. 1: demodulation is invariant to attenuation h and phase shift γ.
	m := New()
	in := randomBits(rand.New(rand.NewSource(3)), 256)
	tx := m.Modulate(in)
	h := complex(0.173, 0) * cmplx.Exp(complex(0, 2.4))
	rx := tx.Scale(h)
	if !bits.Equal(in, m.Demodulate(rx)) {
		t.Error("demodulation not invariant to channel gain/phase")
	}
}

func TestDemodulateUnderNoise(t *testing.T) {
	// At 15 dB SNR (well below the 20–40 dB the paper says practical
	// systems use) a clean MSK link should be essentially error free.
	m := New()
	in := randomBits(rand.New(rand.NewSource(4)), 2000)
	tx := m.Modulate(in)
	ns := dsp.NewNoiseSource(dsp.FromDB(-15), 5) // signal power 1
	got := m.Demodulate(ns.AddTo(tx))
	if ber := bits.BER(in, got); ber > 0.001 {
		t.Errorf("BER at 15 dB = %v, want ~0", ber)
	}
}

func TestOversamplingSNRGain(t *testing.T) {
	// At a bruising 0 dB per-sample SNR, sps=8 must beat sps=1 clearly.
	rng := rand.New(rand.NewSource(6))
	in := randomBits(rng, 4000)
	berFor := func(sps int, seed int64) float64 {
		m := New(WithSamplesPerSymbol(sps))
		tx := m.Modulate(in)
		ns := dsp.NewNoiseSource(1, seed)
		return bits.BER(in, m.Demodulate(ns.AddTo(tx)))
	}
	b1 := berFor(1, 7)
	b8 := berFor(8, 8)
	if b8 >= b1/2 {
		t.Errorf("oversampling gain missing: sps=1 BER %v, sps=8 BER %v", b1, b8)
	}
}

func TestPhaseTrajectoryFig3(t *testing.T) {
	// Fig. 3: data 1010111000 produces the staircase
	// 0, π/2, 0, π/2, 0, π/2, π, 3π/2, π, π/2, 0.
	m := New()
	data := []byte{1, 0, 1, 0, 1, 1, 1, 0, 0, 0}
	want := []float64{0, 1, 0, 1, 0, 1, 2, 3, 2, 1, 0} // units of π/2
	got := m.PhaseTrajectory(data)
	if len(got) != len(want) {
		t.Fatalf("trajectory length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]*math.Pi/2) > 1e-12 {
			t.Errorf("trajectory[%d] = %v, want %vπ/2", i, got[i], want[i])
		}
	}
}

func TestModulatedPhaseMatchesTrajectory(t *testing.T) {
	// The actual signal's phase at symbol boundaries must equal the
	// trajectory (mod 2π).
	m := New(WithSamplesPerSymbol(3))
	data := []byte{1, 1, 0, 1, 0, 0}
	s := m.Modulate(data)
	traj := m.PhaseTrajectory(data)
	for i := range traj {
		samplePhase := cmplx.Phase(s[i*3])
		if math.Abs(dsp.WrapPhase(samplePhase-traj[i])) > 1e-9 {
			t.Errorf("boundary %d: signal phase %v, trajectory %v", i, samplePhase, traj[i])
		}
	}
}

func TestNumSamplesNumBits(t *testing.T) {
	m := New(WithSamplesPerSymbol(4))
	if got := m.NumSamples(10); got != 41 {
		t.Errorf("NumSamples(10) = %d, want 41", got)
	}
	if got := m.NumBits(41); got != 10 {
		t.Errorf("NumBits(41) = %d, want 10", got)
	}
	if got := m.NumBits(0); got != 0 {
		t.Errorf("NumBits(0) = %d", got)
	}
	if got := m.NumBits(1); got != 0 {
		t.Errorf("NumBits(1) = %d", got)
	}
	// Partial trailing symbol is not decoded.
	if got := m.NumBits(44); got != 10 {
		t.Errorf("NumBits(44) = %d, want 10", got)
	}
}

func TestSoftDemodulateMagnitude(t *testing.T) {
	// Noise-free soft outputs are exactly ±π/2.
	m := New()
	in := []byte{1, 0, 1}
	s := m.Modulate(in)
	soft := m.softDemodulateInto(make([]float64, m.NumBits(len(s))), s)
	want := []float64{math.Pi / 2, -math.Pi / 2, math.Pi / 2}
	for i := range want {
		if math.Abs(soft[i]-want[i]) > 1e-9 {
			t.Errorf("soft[%d] = %v, want %v", i, soft[i], want[i])
		}
	}
}

func TestPhaseDiffsSumPerSymbol(t *testing.T) {
	m := New(WithSamplesPerSymbol(5))
	in := []byte{1, 0}
	diffs := m.PhaseDiffs(in)
	if len(diffs) != 10 {
		t.Fatalf("len = %d, want 10", len(diffs))
	}
	var sum1, sum0 float64
	for _, d := range diffs[:5] {
		sum1 += d
	}
	for _, d := range diffs[5:] {
		sum0 += d
	}
	if math.Abs(sum1-math.Pi/2) > 1e-12 || math.Abs(sum0+math.Pi/2) > 1e-12 {
		t.Errorf("per-symbol sums %v, %v, want ±π/2", sum1, sum0)
	}
}

func TestModulateEmpty(t *testing.T) {
	m := New()
	s := m.Modulate(nil)
	if len(s) != 1 {
		t.Errorf("empty modulation length %d, want 1 (reference sample)", len(s))
	}
	if got := m.Demodulate(s); len(got) != 0 {
		t.Errorf("demodulated empty = %v", got)
	}
}

func TestNewValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"sps 0":        func() { New(WithSamplesPerSymbol(0)) },
		"amplitude 0":  func() { New(WithAmplitude(0)) },
		"amplitude <0": func() { New(WithAmplitude(-1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSignalPowerEqualsAmplitudeSquared(t *testing.T) {
	m := New(WithAmplitude(3))
	s := m.Modulate(randomBits(rand.New(rand.NewSource(9)), 100))
	if math.Abs(s.Power()-9) > 1e-9 {
		t.Errorf("power = %v, want 9", s.Power())
	}
}

func TestDecideDiffsMatchesDemodulation(t *testing.T) {
	// On clean per-sample diffs, DecideDiffs must reproduce the bits.
	m := New()
	in := randomBits(rand.New(rand.NewSource(20)), 300)
	got := m.DecideDiffs(m.PhaseDiffs(in), nil)
	if !bits.Equal(in, got) {
		t.Error("DecideDiffs on clean diffs failed")
	}
}

func TestDecideDiffsWeights(t *testing.T) {
	// A corrupted sample with near-zero weight must not flip the symbol.
	m := New(WithSamplesPerSymbol(4))
	in := []byte{1}
	diffs := m.PhaseDiffs(in)
	weights := []float64{1, 1, 1, 1}
	diffs[2] = -math.Pi // corrupted estimate
	weights[2] = 0.01   // ...flagged as ill-conditioned
	if got := m.DecideDiffs(diffs, weights); got[0] != 1 {
		t.Error("down-weighted corruption flipped the symbol")
	}
	// Unweighted, the same corruption wins.
	if got := m.DecideDiffs(diffs, nil); got[0] != 0 {
		t.Skip("corruption magnitude insufficient for the control case")
	}
}

func TestStepPrior(t *testing.T) {
	m := New(WithSamplesPerSymbol(4))
	step := math.Pi / 8
	if got := m.StepPrior(step); got > 1e-12 {
		t.Errorf("StepPrior(+step) = %v", got)
	}
	if got := m.StepPrior(-step); got > 1e-12 {
		t.Errorf("StepPrior(−step) = %v", got)
	}
	if got := m.StepPrior(0); math.Abs(got-step) > 1e-12 {
		t.Errorf("StepPrior(0) = %v, want %v", got, step)
	}
	// Symmetric under sign change — must not bias bit decisions.
	for _, d := range []float64{0.3, 1.1, 2.9} {
		if math.Abs(m.StepPrior(d)-m.StepPrior(-d)) > 1e-12 {
			t.Errorf("StepPrior asymmetric at %v", d)
		}
	}
}

func TestBitsPerSymbol(t *testing.T) {
	if New().BitsPerSymbol() != 1 {
		t.Error("MSK carries one bit per symbol")
	}
}
