package dsp

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestMovingStatsConstantSignal(t *testing.T) {
	m := NewMovingStats(8)
	for i := 0; i < 100; i++ {
		m.Push(complex(2, 0)) // energy 4
	}
	if got := m.Mean(); !approx(got, 4, 1e-12) {
		t.Errorf("Mean = %v, want 4", got)
	}
	if got := m.Variance(); !approx(got, 0, 1e-9) {
		t.Errorf("Variance = %v, want 0", got)
	}
}

func TestMovingStatsEviction(t *testing.T) {
	m := NewMovingStats(2)
	m.Push(1) // energy 1
	m.Push(1)
	m.Push(complex(0, 3)) // energy 9; window now {1, 9}
	if got := m.Mean(); !approx(got, 5, 1e-12) {
		t.Errorf("Mean after eviction = %v, want 5", got)
	}
	if got := m.Variance(); !approx(got, 16, 1e-9) {
		t.Errorf("Variance = %v, want 16", got)
	}
}

func TestMovingStatsMatchesBatch(t *testing.T) {
	// The incremental window must agree with a direct computation.
	f := func(vals []float64) bool {
		const w = 5
		m := NewMovingStats(w)
		for i, v := range vals {
			if math.Abs(v) > 1e3 {
				v = math.Mod(v, 1e3)
			}
			m.Push(complex(v, 0))
			lo := i + 1 - w
			if lo < 0 {
				lo = 0
			}
			var window []float64
			for j := lo; j <= i; j++ {
				x := vals[j]
				if math.Abs(x) > 1e3 {
					x = math.Mod(x, 1e3)
				}
				window = append(window, x*x)
			}
			scale := 1 + Mean(window)
			if math.Abs(m.Mean()-Mean(window)) > 1e-6*scale {
				return false
			}
			if math.Abs(m.Variance()-Variance(window)) > 1e-4*scale*scale {
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
	m := NewMovingStats(4)
	m.Push(5)
	m.Reset()
	if m.Mean() != 0 || m.Variance() != 0 || m.Full() {
		t.Error("Reset did not clear state")
	}
}

func TestMovingStatsFull(t *testing.T) {
	m := NewMovingStats(3)
	m.Push(1)
	m.Push(1)
	if m.Full() {
		t.Error("Full before window filled")
	}
	m.Push(1)
	if !m.Full() {
		t.Error("not Full after window filled")
	}
}

func TestEnergyProfileDetectsPacketEdge(t *testing.T) {
	// 100 near-zero samples then 100 unit-power samples: the profile must
	// rise sharply after the edge.
	s := make(Signal, 200)
	for i := 100; i < 200; i++ {
		s[i] = 1
	}
	m := NewMovingStats(16)
	for i, v := range s {
		m.Push(v)
		if i == 50 && m.Mean() > 0.01 {
			t.Errorf("windowed energy before edge = %v", m.Mean())
		}
		if i == 150 && m.Mean() < 0.9 {
			t.Errorf("windowed energy after edge = %v", m.Mean())
		}
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
		m := NewMovingStats(32)
		var sum float64
		for i, v := range s {
			m.Push(v)
			if i >= 32 {
				sum += m.Variance()
			}
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
	NewMovingStats(0)
}
