package dsp

import "math"

// NoiseSource generates circularly-symmetric complex additive white
// Gaussian noise, the channel model both Theorem 8.1 and the evaluation
// assume. Each complex sample has total power equal to the configured
// variance (variance/2 per real dimension).
//
// A NoiseSource owns its generator and is not safe for concurrent use;
// the simulator gives each receiver its own source so experiment runs are
// reproducible regardless of goroutine scheduling. The stream of a source
// seeded with s is rand.New(rand.NewSource(s)).NormFloat64(), two draws
// per sample, real part first: the generator is math/rand's, run
// concretely (see normStream).
type NoiseSource struct {
	gen   normStream
	power float64
	sigma float64 // per-dimension standard deviation
}

// NewNoiseSource returns a source producing samples with average power
// `power` (linear), seeded deterministically.
func NewNoiseSource(power float64, seed int64) *NoiseSource {
	if power < 0 {
		panic("dsp: negative noise power")
	}
	ns := &NoiseSource{power: power, sigma: math.Sqrt(power / 2)}
	ns.gen.seed(seed)
	return ns
}

// Power returns the configured average noise power.
func (ns *NoiseSource) Power() float64 { return ns.power }

// Sample returns one noise sample. The conversions round each part to
// float64, so a caller's sum with the sample is never fused into an FMA.
func (ns *NoiseSource) Sample() complex128 {
	re := ns.gen.norm()
	return complex(float64(re*ns.sigma), float64(ns.gen.norm()*ns.sigma))
}

// Samples returns n noise samples.
func (ns *NoiseSource) Samples(n int) Signal {
	out := make(Signal, n)
	for i := range out {
		out[i] = ns.Sample()
	}
	return out
}

// AddTo returns s plus fresh noise of the configured power, sample for
// sample. Zero-power sources return a copy of s unchanged, so "noiseless"
// experiment configurations cost nothing extra.
func (ns *NoiseSource) AddTo(s Signal) Signal {
	if ns.power == 0 {
		return s.Clone()
	}
	out := make(Signal, len(s))
	for i, v := range s {
		out[i] = v + ns.Sample()
	}
	return out
}

// AddInPlace adds fresh noise to s sample for sample, drawing the exact
// same stream AddTo would. The allocation-free variant the simulator's
// reusable reception buffers rely on. Each of a sample's two draws runs
// the ziggurat's fast path inline (one generator step, one table
// compare), written out twice because a call per draw costs more than
// the draw; only the draws that miss it call normStream.tail.
//
//anc:hotpath
func (ns *NoiseSource) AddInPlace(s Signal) {
	if ns.power == 0 {
		return
	}
	g, sigma := &ns.gen, ns.sigma
	for i := range s {
		j := int32(g.next() >> 31)
		var re, im float64
		if c := j & 0x7F; absInt32(j) < kn[c] {
			re = float64(j) * float64(wn[c])
		} else {
			re = g.tail(j)
		}
		j = int32(g.next() >> 31)
		if c := j & 0x7F; absInt32(j) < kn[c] {
			im = float64(j) * float64(wn[c])
		} else {
			im = g.tail(j)
		}
		s[i] += complex(float64(re*sigma), float64(im*sigma)) // as s[i] + Sample()
	}
}

// Reseed rewinds the source onto a new deterministic stream without
// reallocating its generator state. A source reseeded with some seed
// produces the same samples as a fresh NewNoiseSource with that seed.
func (ns *NoiseSource) Reseed(seed int64) {
	ns.gen.seed(seed)
}

// SetPower reconfigures the source's average sample power, letting a
// pooled source be retargeted across runs without reallocating its
// generator. Combined with Reseed it is behaviorally identical to a
// fresh NewNoiseSource(power, seed).
func (ns *NoiseSource) SetPower(power float64) {
	if power < 0 {
		panic("dsp: negative noise power")
	}
	ns.power = power
	ns.sigma = math.Sqrt(power / 2)
}

// normStream is math/rand's legacy generator (rngSource: an additive
// lagged-Fibonacci register seeded through rngCooked) with NormFloat64's
// ziggurat (Marsaglia & Tsang, 2000) on top, held as a value so its draws
// inline. Go 1 compatibility pins the stream rand.NewSource(seed)
// produces; normStream returns that stream bit for bit.
type normStream struct {
	tap  int // index into vec
	feed int // index into vec
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1
	rn       = 3.442619855899 // start of the ziggurat's base-strip tail
	// seedSteps is the number of seedrand steps rngSource.Seed takes:
	// 20 to warm up, then three per register word.
	seedSteps = 20 + 3*rngLen
)

// seedPowers[k] is 48271^(k+1) mod (2³¹−1). math/rand's seedrand is
// x ← 48271·x mod (2³¹−1), so its k-th value from x₀ is
// seedPowers[k−1]·x₀ mod (2³¹−1): the register words become independent
// products instead of one chain of seedSteps dependent steps.
var seedPowers = func() (p [seedSteps]uint64) {
	x := uint64(1)
	for k := range p {
		x = x * 48271 % int32max
		p[k] = x
	}
	return p
}()

// seed is rngSource.Seed.
func (g *normStream) seed(seed int64) {
	g.tap = 0
	g.feed = rngLen - rngTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range g.vec {
		p := (*[3]uint64)(seedPowers[20+3*i:])
		u := int64(x*p[0]%int32max) << 40
		u ^= int64(x*p[1]%int32max) << 20
		u ^= int64(x * p[2] % int32max)
		g.vec[i] = u ^ rngCooked[i]
	}
}

// next is rngSource.Uint64: one step of the register.
func (g *normStream) next() uint64 {
	g.tap--
	if g.tap < 0 {
		g.tap += rngLen
	}
	g.feed--
	if g.feed < 0 {
		g.feed += rngLen
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// uniform is Rand.Float64 over this register.
func (g *normStream) uniform() float64 {
again:
	f := float64(int64(g.next()&(1<<63-1))) / (1 << 63)
	if f == 1 {
		goto again // resample; this branch is taken O(never)
	}
	return f
}

// norm is Rand.NormFloat64 over this register.
func (g *normStream) norm() float64 {
	j := int32(g.next() >> 31)
	if c := j & 0x7F; absInt32(j) < kn[c] {
		return float64(j) * float64(wn[c])
	}
	return g.tail(j)
}

// tail finishes a NormFloat64 whose first draw j missed the ziggurat's
// fast path, continuing NormFloat64's loop from that draw: the base strip
// (c == 0) samples the tail beyond rn, a wedge accepts or rejects
// against the density, and a rejection draws afresh.
func (g *normStream) tail(j int32) float64 {
	for {
		c := j & 0x7F
		x := float64(j) * float64(wn[c])
		if absInt32(j) < kn[c] {
			return x
		}
		if c == 0 {
			for {
				x = -math.Log(g.uniform()) * (1.0 / rn)
				y := -math.Log(g.uniform())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[c]+float32(g.uniform())*(fn[c-1]-fn[c]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(g.next() >> 31)
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
