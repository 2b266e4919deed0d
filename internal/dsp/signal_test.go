package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestEnergyAndPower(t *testing.T) {
	s := Signal{1, 1i, complex(3, 4)}
	if got := s.Energy(); !approx(got, 1+1+25, 1e-12) {
		t.Errorf("Energy = %v, want 27", got)
	}
	if got := s.Power(); !approx(got, 9, 1e-12) {
		t.Errorf("Power = %v, want 9", got)
	}
	if got := (Signal{}).Power(); got != 0 {
		t.Errorf("empty Power = %v, want 0", got)
	}
}

func TestScaleTo(t *testing.T) {
	s := Signal{complex(2, 0), complex(0, 2)}
	scaled := s.ScaleTo(1)
	if got := scaled.Power(); !approx(got, 1, 1e-12) {
		t.Errorf("ScaleTo(1) power = %v", got)
	}
	// Phase must be preserved by power normalization.
	for i := range s {
		if !approx(cmplx.Phase(s[i]), cmplx.Phase(scaled[i]), 1e-12) {
			t.Errorf("ScaleTo changed phase at %d", i)
		}
	}
	zero := Signal{0, 0}
	if got := zero.ScaleTo(5); got.Power() != 0 {
		t.Errorf("ScaleTo on zero signal = %v", got)
	}
}

func TestAddUnequalLengths(t *testing.T) {
	a := Signal{1, 1}
	b := Signal{1i, 1i, 1i}
	sum := a.Add(b)
	if len(sum) != 3 {
		t.Fatalf("len = %d, want 3", len(sum))
	}
	if sum[0] != 1+1i || sum[2] != 1i {
		t.Errorf("Add = %v", sum)
	}
	// Commutativity with zero padding.
	sum2 := b.Add(a)
	for i := range sum {
		if sum[i] != sum2[i] {
			t.Errorf("Add not commutative at %d", i)
		}
	}
}

func TestDelay(t *testing.T) {
	s := Signal{1, 2}
	d := s.Delay(3)
	if len(d) != 5 || d[0] != 0 || d[3] != 1 || d[4] != 2 {
		t.Errorf("Delay = %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.Delay(-1)
}

func TestDelayPreservesEnergy(t *testing.T) {
	f := func(re, im []float64) bool {
		n := len(re)
		if len(im) < n {
			n = len(im)
		}
		s := make(Signal, n)
		for i := 0; i < n; i++ {
			// Clamp quick's extreme float64 draws so energy stays finite.
			s[i] = complex(math.Mod(re[i], 1e3), math.Mod(im[i], 1e3))
		}
		return approx(s.Energy(), s.Delay(7).Energy(), 1e-9*(1+s.Energy()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPadTo(t *testing.T) {
	s := Signal{1, 2}
	if got := s.PadTo(4); len(got) != 4 || got[3] != 0 {
		t.Errorf("PadTo(4) = %v", got)
	}
	if got := s.PadTo(1); len(got) != 2 {
		t.Errorf("PadTo(1) shortened: %v", got)
	}
}

func TestSliceClamps(t *testing.T) {
	s := Signal{1, 2, 3}
	if got := s.Slice(-5, 2); len(got) != 2 {
		t.Errorf("Slice(-5,2) = %v", got)
	}
	if got := s.Slice(1, 99); len(got) != 2 {
		t.Errorf("Slice(1,99) = %v", got)
	}
	if got := s.Slice(2, 1); len(got) != 0 {
		t.Errorf("Slice(2,1) = %v", got)
	}
}

func TestSliceIsACopy(t *testing.T) {
	s := Signal{1, 2, 3}
	sl := s.Slice(0, 2)
	sl[0] = 99
	if s[0] == 99 {
		t.Error("Slice aliases the source")
	}
}

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi / 2, math.Pi / 2},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi}, // (−π, π] convention
		{3 * math.Pi / 2, -math.Pi / 2},
		{-3 * math.Pi / 2, math.Pi / 2},
		{5 * math.Pi, math.Pi},
		{-5 * math.Pi, math.Pi},
	}
	for _, c := range cases {
		if got := WrapPhase(c.in); !approx(got, c.want, 1e-9) {
			t.Errorf("WrapPhase(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapPhaseRange(t *testing.T) {
	f := func(p float64) bool {
		if math.IsNaN(p) || math.Abs(p) > 1e6 {
			return true // skip absurd magnitudes: loop would be slow
		}
		w := WrapPhase(p)
		return w > -math.Pi-1e-9 && w <= math.Pi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhaseDiff(t *testing.T) {
	a := cmplx.Exp(complex(0, 0.3))
	b := cmplx.Exp(complex(0, 0.3+math.Pi/2))
	if got := PhaseDiff(a, b); !approx(got, math.Pi/2, 1e-9) {
		t.Errorf("PhaseDiff = %v, want π/2", got)
	}
	// Invariance to common attenuation and phase (the Eq. 1 property).
	g := complex(0.37, 0) * cmplx.Exp(complex(0, 1.1))
	if got := PhaseDiff(a*g, b*g); !approx(got, math.Pi/2, 1e-9) {
		t.Errorf("PhaseDiff under channel = %v, want π/2", got)
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-20, -3, 0, 3, 10, 25, 40} {
		if got := 10 * math.Log10(FromDB(db)); !approx(got, db, 1e-9) {
			t.Errorf("10·log10(FromDB(%v)) = %v", db, got)
		}
	}
	if !approx(FromDB(3), 1.9953, 1e-3) {
		t.Errorf("FromDB(3) = %v", FromDB(3))
	}
}
