package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

// The TestMovingStats tests pin ProfileInto's moving-window statistics on
// hand-worked cases.

// profile returns ProfileInto's energy and variance profiles of s.
func profile(s Signal, window int) (energy, variance []float64) {
	energy, variance = make([]float64, len(s)), make([]float64, len(s))
	ProfileInto(energy, variance, s, window)
	return energy, variance
}

func TestMovingStatsConstantSignal(t *testing.T) {
	s := make(Signal, 100)
	for i := range s {
		s[i] = complex(2, 0) // energy 4
	}
	energy, variance := profile(s, 8)
	if got := energy[99]; !approx(got, 4, 1e-12) {
		t.Errorf("mean = %v, want 4", got)
	}
	if got := variance[99]; !approx(got, 0, 1e-9) {
		t.Errorf("variance = %v, want 0", got)
	}
}

func TestMovingStatsEviction(t *testing.T) {
	// Energies 1, 1, 9: with a window of 2 the last entry sees {1, 9}.
	energy, variance := profile(Signal{1, 1, complex(0, 3)}, 2)
	if got := energy[2]; !approx(got, 5, 1e-12) {
		t.Errorf("mean after eviction = %v, want 5", got)
	}
	if got := variance[2]; !approx(got, 16, 1e-9) {
		t.Errorf("variance = %v, want 16", got)
	}
}

func TestMovingStatsMatchesBatch(t *testing.T) {
	// The sliding sums must agree with a direct computation per window.
	f := func(vals []float64) bool {
		const w = 5
		s := make(Signal, len(vals))
		for i, v := range vals {
			if math.Abs(v) > 1e3 {
				v = math.Mod(v, 1e3)
			}
			s[i] = complex(v, 0)
		}
		energy, variance := profile(s, w)
		for i := range s {
			var window []float64
			for j := max(i+1-w, 0); j <= i; j++ {
				window = append(window, real(s[j])*real(s[j]))
			}
			scale := 1 + Mean(window)
			if math.Abs(energy[i]-Mean(window)) > 1e-6*scale {
				return false
			}
			if math.Abs(variance[i]-Variance(window)) > 1e-4*scale*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMovingStatsReset(t *testing.T) {
	// Every call starts from an empty window: nothing an earlier profile
	// saw leaks into the next one through the reused outputs.
	energy, variance := profile(Signal{5}, 4)
	ProfileInto(energy, variance, Signal{0}, 4)
	if energy[0] != 0 || variance[0] != 0 {
		t.Errorf("profile of a zero after a 5 = (%v, %v), want (0, 0)", energy[0], variance[0])
	}
}

func TestMovingStatsFull(t *testing.T) {
	// Energies 9, 0, 0, 0 with a window of 3: while the window fills the
	// mean is over the samples seen, and the fourth sample evicts the 9.
	energy, _ := profile(Signal{3, 0, 0, 0}, 3)
	for i, want := range []float64{9, 4.5, 3, 0} {
		if !approx(energy[i], want, 1e-12) {
			t.Errorf("mean[%d] = %v, want %v", i, energy[i], want)
		}
	}
}

func TestEnergyProfileDetectsPacketEdge(t *testing.T) {
	// 100 near-zero samples then 100 unit-power samples: the profile must
	// rise sharply after the edge.
	s := make(Signal, 200)
	for i := 100; i < 200; i++ {
		s[i] = 1
	}
	energy, _ := profile(s, 16)
	if energy[50] > 0.01 {
		t.Errorf("windowed energy before edge = %v", energy[50])
	}
	if energy[150] < 0.9 {
		t.Errorf("windowed energy after edge = %v", energy[150])
	}
}

func TestVarianceProfileSeparatesCleanFromInterfered(t *testing.T) {
	// Clean MSK-like signal: constant magnitude, rotating phase → ~zero
	// energy variance. Sum of two such signals at an offset frequency →
	// large variance. This is exactly the §7.1 discriminator.
	n := 512
	clean := make(Signal, n)
	mixed := make(Signal, n)
	for i := 0; i < n; i++ {
		a := cmplx.Exp(complex(0, 0.3*float64(i)))
		b := cmplx.Exp(complex(0, -0.4*float64(i)+1))
		clean[i] = a
		mixed[i] = a + b
	}
	// Mean windowed variance once the window is full.
	meanVariance := func(s Signal) float64 {
		_, variance := profile(s, 32)
		var sum float64
		for _, v := range variance[32:] {
			sum += v
		}
		return sum / float64(len(s)-32)
	}
	vClean := meanVariance(clean)
	vMixed := meanVariance(mixed)
	if vClean > 1e-9 {
		t.Errorf("clean MSK variance = %v, want ~0", vClean)
	}
	if vMixed < 100*vClean+0.5 {
		t.Errorf("interfered variance = %v, not clearly above clean %v", vMixed, vClean)
	}
}

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !approx(got, 5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); !approx(got, 4, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-input stats not zero")
	}
}

func TestNewMovingStatsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero window did not panic")
		}
	}()
	ProfileInto(nil, nil, nil, 0)
}
