package sim

import (
	"math/rand"
	"runtime"
	"sync"

	"cbma/internal/rx"
)

// roundArena is the reusable scratch of one goroutine executing rounds:
// everything a round writes that does not outlive it. Each Engine.RunContext
// or RunSchedule call borrows one arena from arenaPool for its duration
// (its first steady-state worker goroutine runs on it, each further worker
// borrows its own), so steady-state rounds allocate
// nothing, and an arena warmed by one campaign point serves the next point
// too, whatever its tag count, code length or receiver mode.
//
// Reuse is safe because every buffer is either fully overwritten or zeroed
// by the stage that uses it before it is read (payloads by the payload
// draw, the waveform by Tag.WaveformInto, the mixing buffer by mixFor, the
// gate and echo buffers by their channel.*Into writers, the receiver
// scratch by rx), and every generator is re-seeded on its first use in a
// round (roundStreams.rng). No value survives from one round to the next.
type roundArena struct {
	// Build stage: one payload buffer per active-tag slot and the placement
	// bookkeeping.
	payloads [][]byte
	offsets  []int
	delays   []float64
	// Mix stage: the realized link gains (for trace recording), the
	// waveform buffer each tag's frame is synthesized into in turn, the
	// accumulation buffer, the intermittent-excitation gate and the
	// multipath output.
	gains []complex128
	wave  []complex128
	mix   []complex128
	gate  []float64
	echo  []complex128
	// rx is the receiver's per-call scratch.
	rx rx.Scratch
	// gens holds one reusable generator per stream.
	gens [numStreams]*rand.Rand
}

// arenaPool recycles round arenas across runs, engines and campaign
// points. It is a free list, not a sync.Pool: a pooled arena that the GC
// clears, or that lands in another P's private slot, is rebuilt at its next
// borrow, regrowing every buffer a round needs. It keeps at most GOMAXPROCS
// arenas, one per goroutine that can run rounds at once; arenas returned
// beyond that go to the GC.
var arenaPool struct {
	mu   sync.Mutex
	free []*roundArena
}

// getArena borrows the most recently returned arena, or a new one; return
// it with putArena.
func getArena() *roundArena {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	n := len(arenaPool.free)
	if n == 0 {
		return new(roundArena)
	}
	a := arenaPool.free[n-1]
	arenaPool.free[n-1] = nil
	arenaPool.free = arenaPool.free[:n-1]
	return a
}

// putArena returns a borrowed arena. The caller must hold no reference into
// it afterwards.
func putArena(a *roundArena) {
	arenaPool.mu.Lock()
	defer arenaPool.mu.Unlock()
	if len(arenaPool.free) < runtime.GOMAXPROCS(0) {
		arenaPool.free = append(arenaPool.free, a)
	}
}

// streams returns the stream node of one round, backed by the arena's
// generators.
func (a *roundArena) streams(seed int64, runSeq, phase, round uint64) roundStreams {
	return newRoundStreams(seed, runSeq, phase, round, &a.gens)
}

// grow sizes the per-slot scratch for n active tags, retaining previously
// allocated storage.
func (a *roundArena) grow(n int) {
	if cap(a.payloads) < n {
		payloads := make([][]byte, n)
		copy(payloads, a.payloads)
		a.payloads = payloads
		a.offsets = make([]int, n)
		a.delays = make([]float64, n)
		a.gains = make([]complex128, n)
	}
	a.payloads = a.payloads[:n]
	a.offsets = a.offsets[:n]
	a.delays = a.delays[:n]
	a.gains = a.gains[:n]
}

// mixFor returns a zeroed mixing buffer of length n. When the buffer must
// grow it grows to at least span — the scenario's largest possible round
// (Engine.mixSpan) — so a jittered round that sets a new maximum length
// does not regrow it again.
func (a *roundArena) mixFor(n, span int) []complex128 {
	if cap(a.mix) < n {
		a.mix = make([]complex128, max(n, span))
	}
	a.mix = a.mix[:n]
	for i := range a.mix {
		a.mix[i] = 0
	}
	return a.mix
}
