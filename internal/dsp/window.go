package dsp

// MovingStats computes mean and variance of per-sample energy |y[n]|² over
// a sliding window. The packet detector and the interference detector of
// §7.1 are both built on it: a packet begins where windowed energy rises
// well above the noise floor, and interference is declared where the
// windowed energy *variance* is large (a clean MSK signal has nearly
// constant energy; a sum of two MSK signals does not).
type MovingStats struct {
	window  int
	samples []float64 // ring buffer of |y|² values
	head    int
	count   int
	sum     float64
	sumSq   float64
}

// NewMovingStats returns a detector with the given window length in
// samples. Window must be positive.
func NewMovingStats(window int) *MovingStats {
	if window <= 0 {
		panic("dsp: non-positive window")
	}
	return &MovingStats{window: window, samples: make([]float64, window)}
}

// Push adds a sample's energy to the window, evicting the oldest if full.
func (m *MovingStats) Push(v complex128) {
	e := real(v)*real(v) + imag(v)*imag(v)
	if m.count == m.window {
		old := m.samples[m.head]
		m.sum -= old
		m.sumSq -= old * old
	} else {
		m.count++
	}
	m.samples[m.head] = e
	m.sum += e
	m.sumSq += e * e
	m.head++
	if m.head == m.window {
		m.head = 0
	}
}

// Full reports whether the window has seen at least window samples.
func (m *MovingStats) Full() bool { return m.count == m.window }

// Window returns the configured window length. A caller re-using one
// detector across receptions can skip Rewindow (and just Reset) when the
// length is unchanged.
func (m *MovingStats) Window() int { return m.window }

// Mean returns the windowed mean energy. Zero before any sample.
func (m *MovingStats) Mean() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Variance returns the windowed population variance of the energy.
func (m *MovingStats) Variance() float64 {
	_, v := m.meanVariance()
	return v
}

// meanVariance returns Mean and Variance from one computation of the mean,
// the pair the profile sweep reads after every sample.
func (m *MovingStats) meanVariance() (mean, variance float64) {
	if m.count == 0 {
		return 0, 0
	}
	n := float64(m.count)
	mean = m.sum / n
	v := m.sumSq/n - mean*mean
	if v < 0 { // floating-point cancellation guard
		v = 0
	}
	return mean, v
}

// Reset clears the window.
func (m *MovingStats) Reset() {
	m.head, m.count, m.sum, m.sumSq = 0, 0, 0, 0
}

// Rewindow resets the detector to a (possibly different) window length,
// reusing the ring buffer when its capacity allows. After Rewindow the
// detector behaves exactly like NewMovingStats(window).
func (m *MovingStats) Rewindow(window int) {
	if window <= 0 {
		panic("dsp: non-positive window")
	}
	if cap(m.samples) < window {
		m.samples = make([]float64, window)
	} else {
		m.samples = m.samples[:window]
	}
	m.window = window
	m.Reset()
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for empty input).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}
