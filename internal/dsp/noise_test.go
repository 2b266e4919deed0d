package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestNoisePowerMatchesConfiguration(t *testing.T) {
	for _, p := range []float64{0.01, 0.5, 1, 4} {
		ns := NewNoiseSource(p, 1)
		got := ns.Samples(200000).Power()
		if math.Abs(got-p)/p > 0.05 {
			t.Errorf("noise power = %v, want %v", got, p)
		}
	}
}

func TestNoiseZeroMean(t *testing.T) {
	ns := NewNoiseSource(1, 2)
	var sum complex128
	const n = 100000
	for i := 0; i < n; i++ {
		sum += ns.Sample()
	}
	mean := sum / complex(n, 0)
	if math.Abs(real(mean)) > 0.02 || math.Abs(imag(mean)) > 0.02 {
		t.Errorf("noise mean = %v, want ~0", mean)
	}
}

func TestNoiseCircularSymmetry(t *testing.T) {
	// Real and imaginary parts carry equal power.
	ns := NewNoiseSource(2, 3)
	var re, im float64
	const n = 100000
	for i := 0; i < n; i++ {
		s := ns.Sample()
		re += real(s) * real(s)
		im += imag(s) * imag(s)
	}
	if math.Abs(re-im)/re > 0.05 {
		t.Errorf("dimension powers %v vs %v not balanced", re/n, im/n)
	}
}

func TestNoiseDeterministicBySeed(t *testing.T) {
	a := NewNoiseSource(1, 7).Samples(64)
	b := NewNoiseSource(1, 7).Samples(64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different noise")
		}
	}
	c := NewNoiseSource(1, 8).Samples(64)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestAddToZeroPower(t *testing.T) {
	ns := NewNoiseSource(0, 1)
	s := Signal{1, 2i}
	got := ns.AddTo(s)
	for i := range s {
		if got[i] != s[i] {
			t.Error("zero-power AddTo modified signal")
		}
	}
	got[0] = 99
	if s[0] == 99 {
		t.Error("AddTo aliases input")
	}
}

func TestAddToRaisesPower(t *testing.T) {
	ns := NewNoiseSource(1, 4)
	s := make(Signal, 100000)
	for i := range s {
		s[i] = 1 // unit-power carrier
	}
	got := ns.AddTo(s).Power()
	if math.Abs(got-2) > 0.1 {
		t.Errorf("signal+noise power = %v, want ~2", got)
	}
}

func TestNegativeNoisePowerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative power did not panic")
		}
	}()
	NewNoiseSource(-1, 1)
}

// countingSource counts the Int63 draws math/rand makes from its legacy
// source and keeps the first, so the reference stream can tell which
// ziggurat branch each NormFloat64 took.
type countingSource struct {
	rand.Source64
	n     int
	first int64
}

func (c *countingSource) Int63() int64 {
	v := c.Source64.Int63()
	if c.n == 0 {
		c.first = v
	}
	c.n++
	return v
}

// TestNoiseStreamMatchesMathRand holds NoiseSource to the stream it
// replaced, rand.New(rand.NewSource(seed)).NormFloat64(), bit for bit:
// over 1,000 random seeds and the seeding edge cases (0, ±1, negatives,
// multiples of 2³¹−1, the int64 extremes), lengths 0…8,000, Sample and
// AddInPlace calls interleaved, fresh and reseeded sources. Both of the
// ziggurat's slow branches must run: the base strip and a wedge
// rejection that draws again.
func TestNoiseStreamMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, 2, -2, m, -m, 2 * m, -2 * m, 5 * m, m - 1, m + 1, 89482311,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	pick := rand.New(rand.NewSource(99))
	for len(seeds) < 1017 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	reused := NewNoiseSource(0.37, 12345)
	var baseStrip, wedgeRejected int
	for si, seed := range seeds {
		n := pick.Intn(8001)
		switch si {
		case 0:
			n = 0
		case 1:
			n = 8000
		}
		power := 0.37
		if si%3 == 0 {
			power = 2 // sigma 1: the draws themselves
		}
		ns := NewNoiseSource(power, seed)
		if si%2 == 1 {
			reused.SetPower(power)
			reused.Reseed(seed)
			ns = reused
		}
		src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
		ref := rand.New(src)
		sigma := math.Sqrt(power / 2)
		draw := func() float64 {
			src.n = 0
			v := ref.NormFloat64()
			j := int32(uint32(src.first >> 31))
			if c := j & 0x7F; absInt32(j) >= kn[c] {
				if c == 0 {
					baseStrip++
				} else if src.n > 2 {
					wedgeRejected++
				}
			}
			return v
		}
		for done := 0; done < n; {
			k := min(n-done, 1+pick.Intn(700))
			if pick.Intn(3) == 0 {
				for i := 0; i < k; i++ {
					re := draw()
					want := complex(re*sigma, draw()*sigma)
					if got := ns.Sample(); !sameBits(got, want) {
						t.Fatalf("seed %d sample %d: Sample %v, math/rand %v", seed, done+i, got, want)
					}
				}
			} else {
				s := make(Signal, k)
				want := make(Signal, k)
				for i := range s {
					s[i] = complex(float64(i), -0.5)
					re := draw()
					// Rounded as Sample's parts are: s[i] + Sample() on every GOARCH.
					want[i] = s[i] + complex(float64(re*sigma), float64(draw()*sigma))
				}
				ns.AddInPlace(s)
				for i := range s {
					if !sameBits(s[i], want[i]) {
						t.Fatalf("seed %d sample %d: AddInPlace %v, math/rand %v", seed, done+i, s[i], want[i])
					}
				}
			}
			done += k
		}
	}
	t.Logf("%d seeds; slow branches: %d base-strip draws, %d wedge rejections", len(seeds), baseStrip, wedgeRejected)
	if baseStrip == 0 || wedgeRejected == 0 {
		t.Errorf("slow branches: %d base-strip draws, %d wedge rejections; both must run", baseStrip, wedgeRejected)
	}
}
