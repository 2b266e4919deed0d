package core

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/dsp"
	"repro/internal/msk"
)

// mixedMSK returns the sum of two independent random-payload MSK signals
// with the given amplitudes. The second signal carries a small carrier
// frequency offset, as any two physical transmitters do: without it the
// relative phase θ−φ sits on a π/4 lattice (both modulators share the
// sample clock) and the paper's random-phase assumption behind Eq. 6
// fails. The CFO sweeps the relative phase across the window, which is
// precisely what makes the σ statistic valid on real radios.
func mixedMSK(rng *rand.Rand, a, b float64, nbits int) dsp.Signal {
	m := msk.New(WithA(a))
	mb := msk.New(WithA(b))
	sa := m.Modulate(randomBits(rng, nbits))
	sb := mb.Modulate(randomBits(rng, nbits))
	cfo := channel.Link{Gain: 1, Phase: rng.Float64() * 2 * math.Pi, FreqOffset: 0.011}
	return sa.Add(cfo.Apply(sb))
}

// WithA is shorthand for the amplitude option.
func WithA(a float64) msk.Option { return msk.WithAmplitude(a) }

func randomBits(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(rng.Intn(2))
	}
	return out
}

func TestEstimateAmplitudesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ a, b float64 }{
		{1, 1},
		{1, 0.7},
		{1, 0.5},
		{2, 0.9},
		{0.5, 0.45},
	}
	for _, c := range cases {
		mix := mixedMSK(rng, c.a, c.b, 3000)
		est, err := EstimateAmplitudes(mix)
		if err != nil {
			t.Fatalf("a=%v b=%v: %v", c.a, c.b, err)
		}
		hi, lo := math.Max(c.a, c.b), math.Min(c.a, c.b)
		if math.Abs(est.A-hi)/hi > 0.1 {
			t.Errorf("a=%v b=%v: est.A = %v, want ≈ %v", c.a, c.b, est.A, hi)
		}
		if math.Abs(est.B-lo)/lo > 0.15 {
			t.Errorf("a=%v b=%v: est.B = %v, want ≈ %v", c.a, c.b, est.B, lo)
		}
	}
}

func TestEstimateAmplitudesMuIsTotalPower(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mix := mixedMSK(rng, 1.2, 0.8, 4000)
	est, err := EstimateAmplitudes(mix)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.2*1.2 + 0.8*0.8
	if math.Abs(est.Mu-want)/want > 0.05 {
		t.Errorf("µ = %v, want ≈ %v (Eq. 5)", est.Mu, want)
	}
	// Eq. 6: σ = A²+B²+4AB/π.
	wantSig := want + 4*1.2*0.8/math.Pi
	if math.Abs(est.Sig-wantSig)/wantSig > 0.05 {
		t.Errorf("σ = %v, want ≈ %v (Eq. 6)", est.Sig, wantSig)
	}
}

func TestEstimateAmplitudesUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mix := mixedMSK(rng, 1, 0.6, 3000)
	ns := dsp.NewNoiseSource(dsp.FromDB(-20)*mix.Power(), 4)
	est, err := EstimateAmplitudes(ns.AddTo(mix))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.A-1) > 0.12 || math.Abs(est.B-0.6) > 0.12 {
		t.Errorf("noisy estimates A=%v B=%v, want ≈ 1, 0.6", est.A, est.B)
	}
}

func TestEstimateAmplitudesSingleSignalFails(t *testing.T) {
	// A single constant-envelope signal has σ ≈ µ, so AB ≈ 0 and the
	// estimator must report failure rather than invent a second signal.
	m := msk.New()
	s := m.Modulate(randomBits(rand.New(rand.NewSource(5)), 2000))
	_, err := EstimateAmplitudes(s)
	if !errors.Is(err, ErrAmplitude) {
		t.Errorf("err = %v, want ErrAmplitude", err)
	}
}

func TestEstimateAmplitudesShortWindow(t *testing.T) {
	if _, err := EstimateAmplitudes(make(dsp.Signal, 4)); !errors.Is(err, ErrAmplitude) {
		t.Errorf("err = %v, want ErrAmplitude", err)
	}
}

func TestEstimateAmplitudesEqualAmplitudes(t *testing.T) {
	// A = B is the discriminant's boundary; must still return sane values.
	rng := rand.New(rand.NewSource(6))
	mix := mixedMSK(rng, 1, 1, 5000)
	est, err := EstimateAmplitudes(mix)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.A-1) > 0.2 || math.Abs(est.B-1) > 0.2 {
		t.Errorf("A=%v B=%v, want ≈ 1, 1", est.A, est.B)
	}
}

func TestAssignAmplitudes(t *testing.T) {
	est := AmplitudeEstimate{A: 2, B: 1}
	// Known power ≈ 1² → B side is the known signal → swap.
	got := AssignAmplitudes(est, 1.1)
	if got.A != 1 || got.B != 2 {
		t.Errorf("assign = (%v, %v), want (1, 2)", got.A, got.B)
	}
	// Known power ≈ 2² → keep.
	got = AssignAmplitudes(est, 3.9)
	if got.A != 2 || got.B != 1 {
		t.Errorf("assign = (%v, %v), want (2, 1)", got.A, got.B)
	}
}

func TestEstimatorConditionalMean(t *testing.T) {
	// Appendix B: E[cos(θ−φ) | cos > 0] = 2/π. Validate the statistic the
	// σ equation rests on, directly from random phases.
	rng := rand.New(rand.NewSource(7))
	var sum float64
	var count int
	for i := 0; i < 200000; i++ {
		c := math.Cos(rng.Float64() * 2 * math.Pi)
		if c > 0 {
			sum += c
			count++
		}
	}
	got := sum / float64(count)
	if math.Abs(got-2/math.Pi) > 0.01 {
		t.Errorf("E[cos|cos>0] = %v, want 2/π ≈ %v", got, 2/math.Pi)
	}
}

func TestEstimateAmplitudesOrderInvariance(t *testing.T) {
	// Which signal is "first" in the sum must not matter.
	rng := rand.New(rand.NewSource(8))
	bitsA := randomBits(rng, 2000)
	bitsB := randomBits(rng, 2000)
	sa := msk.New(WithA(1.5)).Modulate(bitsA)
	sb := msk.New(WithA(0.5)).Modulate(bitsB)
	e1, err1 := EstimateAmplitudes(sa.Add(sb))
	e2, err2 := EstimateAmplitudes(sb.Add(sa))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(e1.A-e2.A) > 1e-9 || math.Abs(e1.B-e2.B) > 1e-9 {
		t.Error("estimates depend on summation order")
	}
}

func TestReconstructMatchesDefinition(t *testing.T) {
	p := PhasePair{Theta: 0.5, Phi: -1.2}
	got := reconstruct(p, 2, 3)
	want := complex(2, 0)*cmplx.Exp(complex(0, 0.5)) + complex(3, 0)*cmplx.Exp(complex(0, -1.2))
	if cmplx.Abs(got-want) > 1e-12 {
		t.Errorf("reconstruct = %v, want %v", got, want)
	}
}

func TestEnvelopeEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct{ a, b float64 }{{1, 0.5}, {0.8, 0.4}, {1, 1}} {
		mix := mixedMSK(rng, c.a, c.b, 3000)
		est, err := EstimateAmplitudesEnvelope(mix)
		if err != nil {
			t.Fatalf("a=%v b=%v: %v", c.a, c.b, err)
		}
		hi, lo := math.Max(c.a, c.b), math.Min(c.a, c.b)
		if math.Abs(est.A-hi)/hi > 0.1 || (lo > 0 && math.Abs(est.B-lo)/lo > 0.2) {
			t.Errorf("a=%v b=%v: envelope estimate (%v, %v)", c.a, c.b, est.A, est.B)
		}
	}
}

func TestEnvelopeEstimatorRobustToPhaseLattice(t *testing.T) {
	// The failure mode that motivates the fallback: zero relative CFO
	// keeps θ−φ on a π/4 lattice. The envelope method must still work.
	rng := rand.New(rand.NewSource(10))
	sa := msk.New(WithA(0.4)).Modulate(randomBits(rng, 3000))
	sb := msk.New(WithA(0.8)).Modulate(randomBits(rng, 3000))
	est, err := EstimateAmplitudesEnvelope(sa.Add(sb))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.A-0.8) > 0.08 || math.Abs(est.B-0.4) > 0.08 {
		t.Errorf("lattice-phase estimate (%v, %v), want (0.8, 0.4)", est.A, est.B)
	}
}

func TestEnvelopeEstimatorRejectsSingleSignal(t *testing.T) {
	s := msk.New().Modulate(randomBits(rand.New(rand.NewSource(11)), 2000))
	if _, err := EstimateAmplitudesEnvelope(s); !errors.Is(err, ErrAmplitude) {
		t.Errorf("err = %v, want ErrAmplitude", err)
	}
	if _, err := EstimateAmplitudesEnvelope(make(dsp.Signal, 10)); !errors.Is(err, ErrAmplitude) {
		t.Errorf("short window err = %v, want ErrAmplitude", err)
	}
}
