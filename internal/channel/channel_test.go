package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

func TestLinkApplyGainAndPhase(t *testing.T) {
	l := Link{Gain: 0.5, Phase: math.Pi / 3}
	s := dsp.Signal{1, 1i}
	out := l.Apply(s)
	want0 := complex(0.5, 0) * cmplx.Exp(complex(0, math.Pi/3))
	if cmplx.Abs(out[0]-want0) > 1e-12 {
		t.Errorf("out[0] = %v, want %v", out[0], want0)
	}
	// Power scales by Gain².
	if math.Abs(out.Power()-0.25*s.Power()) > 1e-12 {
		t.Errorf("power = %v, want %v", out.Power(), 0.25*s.Power())
	}
	if math.Abs(l.PowerGain()-0.25) > 1e-15 {
		t.Errorf("PowerGain = %v", l.PowerGain())
	}
}

func TestLinkFrequencyOffsetRotates(t *testing.T) {
	l := Link{Gain: 1, FreqOffset: 0.01}
	s := make(dsp.Signal, 100)
	for i := range s {
		s[i] = 1
	}
	out := l.Apply(s)
	// Sample n is rotated by n·0.01 radians.
	if got := cmplx.Phase(out[50]); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("phase at 50 = %v, want 0.5", got)
	}
	// Constant envelope preserved.
	for i, v := range out {
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatalf("magnitude at %d = %v", i, cmplx.Abs(v))
		}
	}
}

func TestReceiveSuperposition(t *testing.T) {
	a := dsp.Signal{1, 1, 1}
	b := dsp.Signal{1i, 1i}
	got := Receive(nil, 0,
		Transmission{Signal: a, Link: Link{Gain: 1}},
		Transmission{Signal: b, Link: Link{Gain: 1}, Delay: 1},
	)
	want := dsp.Signal{1, 1 + 1i, 1 + 1i}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReceiveTailPadIsNoise(t *testing.T) {
	ns := dsp.NewNoiseSource(0.01, 1)
	s := dsp.Signal{1, 1}
	got := Receive(ns, 50, Transmission{Signal: s, Link: Link{Gain: 1}})
	if len(got) != 52 {
		t.Fatalf("len = %d, want 52", len(got))
	}
	tail := got.Slice(2, 52)
	if p := tail.Power(); p > 0.05 {
		t.Errorf("tail power = %v, want ~noise floor 0.01", p)
	}
}

func TestReceiveNoNoiseSource(t *testing.T) {
	got := Receive(nil, 3, Transmission{Signal: dsp.Signal{2}, Link: Link{Gain: 1}})
	if len(got) != 4 || got[0] != 2 || got[3] != 0 {
		t.Errorf("got = %v", got)
	}
}

func TestReceiveNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	Receive(nil, 0, Transmission{Signal: dsp.Signal{1}, Delay: -1})
}

func TestReceiveEnergyAdds(t *testing.T) {
	// Two independent random-phase unit signals: expected combined power
	// is the sum of the individual powers (the §6.2 energy relation).
	rng := rand.New(rand.NewSource(2))
	n := 20000
	mk := func() dsp.Signal {
		s := make(dsp.Signal, n)
		for i := range s {
			s[i] = cmplx.Exp(complex(0, rng.Float64()*2*math.Pi))
		}
		return s
	}
	a, b := mk(), mk()
	got := Receive(nil, 0,
		Transmission{Signal: a, Link: Link{Gain: 0.8}},
		Transmission{Signal: b, Link: Link{Gain: 0.5}},
	).Power()
	want := 0.64 + 0.25
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("combined power = %v, want ~%v", got, want)
	}
}

func TestAmplifyFactorTheorem81(t *testing.T) {
	// With unit power, symmetric unit-gain links and unit noise:
	// A = sqrt(1/(1+1+1)) = 1/sqrt(3).
	got := AmplifyFactor(1, 1, 1, 1)
	if math.Abs(got-1/math.Sqrt(3)) > 1e-12 {
		t.Errorf("A = %v, want 1/sqrt(3)", got)
	}
	// Single-signal case.
	got = AmplifyFactor(4, 0.5, 0, 0)
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("A = %v, want 2", got)
	}
}

func TestAmplifyFactorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive power did not panic")
		}
	}()
	AmplifyFactor(0, 1, 1, 1)
}

func TestAmplifyToRestoresPower(t *testing.T) {
	s := dsp.Signal{0.1, 0.1i, -0.1}
	out := AmplifyTo(s, 2)
	if math.Abs(out.Power()-2) > 1e-12 {
		t.Errorf("power = %v, want 2", out.Power())
	}
}

func TestAmplifyToAmplifiesNoiseToo(t *testing.T) {
	// The §8 low-SNR effect: re-amplification boosts embedded noise.
	ns := dsp.NewNoiseSource(0.1, 3)
	clean := make(dsp.Signal, 10000)
	for i := range clean {
		clean[i] = complex(0.3, 0)
	}
	rx := ns.AddTo(clean)         // power ≈ 0.09 + 0.1
	amplified := AmplifyTo(rx, 1) // scale ≈ sqrt(1/0.19) ≈ 2.29
	scale := amplified[0] / rx[0] // uniform complex scale
	noiseGain := real(scale * cmplx.Conj(scale))
	if noiseGain < 3 { // noise power multiplied ≈ 5.26
		t.Errorf("noise power gain = %v, expected amplification > 3", noiseGain)
	}
}

func TestRandomLinkStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const mean = 0.25
	var sumPower float64
	const n = 5000
	for i := 0; i < n; i++ {
		l := RandomLink(rng, mean, 3)
		sumPower += l.PowerGain()
		if l.Phase < 0 || l.Phase >= 2*math.Pi {
			t.Fatalf("phase %v out of range", l.Phase)
		}
	}
	avg := sumPower / n
	// Mean power within ~15% of target (uniform-in-dB jitter skews it up).
	if avg < mean*0.85 || avg > mean*1.3 {
		t.Errorf("mean power gain = %v, want ≈ %v", avg, mean)
	}
}

func TestRandomLinkDeterministic(t *testing.T) {
	a := RandomLink(rand.New(rand.NewSource(5)), 1, 3)
	b := RandomLink(rand.New(rand.NewSource(5)), 1, 3)
	if a != b {
		t.Error("same seed produced different links")
	}
}

func TestReceiveIntoMatchesReceive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mk := func(n int) dsp.Signal {
		s := make(dsp.Signal, n)
		for i := range s {
			s[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return s
	}
	txs := []Transmission{
		{Signal: mk(300), Link: Link{Gain: 0.8, Phase: 0.7}},
		{Signal: mk(250), Link: Link{Gain: 0.6, Phase: -1.1, FreqOffset: 0.004}, Delay: 120},
	}
	want := Receive(dsp.NewNoiseSource(1e-3, 3), 50, txs...)
	got := ReceiveInto(nil, dsp.NewNoiseSource(1e-3, 3), 50, txs...)
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v != %v", i, got[i], want[i])
		}
	}
	if n := ReceiveLen(50, txs...); n != len(want) {
		t.Errorf("ReceiveLen = %d, want %d", n, len(want))
	}

	// Reusing a dirty oversized buffer must not leak stale samples.
	dirty := mk(1000)
	reused := ReceiveInto(dirty, dsp.NewNoiseSource(1e-3, 3), 50, txs...)
	for i := range want {
		if reused[i] != want[i] {
			t.Fatalf("reused buffer sample %d: %v != %v", i, reused[i], want[i])
		}
	}
}

// TestReceiveIntoRotationTableIsByteEqual pins the carrier-offset cache:
// a reception synthesized with Rotation tables (exact, longer than the
// signal, or too short and so ignored; positive and negative offsets) is
// byte-equal to one computing every rotation on the fly, and both equal
// the cmplx.Exp formulation.
func TestReceiveIntoRotationTableIsByteEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		var plain, cached []Transmission
		for k := 0; k < 1+rng.Intn(3); k++ {
			n := 1 + rng.Intn(6000)
			s := make(dsp.Signal, n)
			for i := range s {
				s[i] = dsp.Cis(rng.Float64() * 2 * math.Pi)
			}
			link := Link{Gain: rng.Float64(), Phase: rng.Float64() * 7, FreqOffset: (rng.Float64()*2 - 1) * 0.012}
			if k == 2 {
				link.FreqOffset = 0
			}
			tx := Transmission{Signal: s, Link: link, Delay: rng.Intn(900)}
			plain = append(plain, tx)
			tableLen := []int{n, n + rng.Intn(3000), rng.Intn(n)}[rng.Intn(3)]
			tx.Rotation = FillRotation(make([]complex128, tableLen), link.FreqOffset, 0)
			cached = append(cached, tx)
		}
		seed := rng.Int63()
		want := ReceiveInto(nil, dsp.NewNoiseSource(1e-3, seed), 64, plain...)
		got := ReceiveInto(nil, dsp.NewNoiseSource(1e-3, seed), 64, cached...)
		exp := make(dsp.Signal, len(want))
		for _, tx := range plain {
			g := complex(tx.Link.Gain, 0) * cmplx.Exp(complex(0, tx.Link.Phase))
			for i, v := range tx.Signal {
				if tx.Link.FreqOffset == 0 {
					exp[tx.Delay+i] += v * g
				} else {
					exp[tx.Delay+i] += v * g * cmplx.Exp(complex(0, tx.Link.FreqOffset*float64(i)))
				}
			}
		}
		dsp.NewNoiseSource(1e-3, seed).AddInPlace(exp)
		for i := range want {
			for _, other := range []complex128{got[i], exp[i]} {
				if math.Float64bits(real(other)) != math.Float64bits(real(want[i])) ||
					math.Float64bits(imag(other)) != math.Float64bits(imag(want[i])) {
					t.Fatalf("trial %d sample %d: %v, want %v", trial, i, other, want[i])
				}
			}
		}
	}
}

// TestRotationExtendsInPlace checks that filling a table from an offset
// leaves the entries before it alone and computes the rest as from zero.
func TestRotationExtendsInPlace(t *testing.T) {
	full := FillRotation(make([]complex128, 500), 0.0071, 0)
	part := FillRotation(make([]complex128, 500), 0.0071, 0)
	part[0] = 42 // untouched below from
	FillRotation(part, 0.0071, 1)
	if part[0] != 42 {
		t.Fatal("Rotation overwrote entries before from")
	}
	for i := 1; i < len(full); i++ {
		if part[i] != full[i] {
			t.Fatalf("entry %d: %v != %v", i, part[i], full[i])
		}
	}
}

func TestNoiseReseedMatchesFresh(t *testing.T) {
	ns := dsp.NewNoiseSource(1e-2, 1)
	ns.Samples(37) // advance the stream
	ns.Reseed(99)
	got := ns.Samples(16)
	want := dsp.NewNoiseSource(1e-2, 99).Samples(16)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v != %v", i, got[i], want[i])
		}
	}
}
