package dsp

// MovingAverager is a streaming moving-average filter: each Push returns the
// mean of the w most recent samples (fewer at the start, where the window
// has not yet filled). It is the filter the CBMA receiver applies to the
// received energy level before frame detection (§III-B of the paper). Its
// zero value is not usable; construct with NewMovingAverager.
type MovingAverager struct {
	buf  []float64
	head int
	n    int
	acc  float64
}

// NewMovingAverager returns a streaming moving-average filter with window
// size w (clamped to a minimum of 1).
func NewMovingAverager(w int) *MovingAverager {
	if w < 1 {
		w = 1
	}
	return &MovingAverager{buf: make([]float64, w)}
}

// Push feeds one sample and returns the current windowed mean.
func (m *MovingAverager) Push(v float64) float64 {
	if m.n == len(m.buf) {
		m.acc -= m.buf[m.head]
	} else {
		m.n++
	}
	m.buf[m.head] = v
	m.acc += v
	m.head = (m.head + 1) % len(m.buf)
	return m.acc / float64(m.n)
}
