package sim

import (
	"errors"
	"fmt"
	"runtime/debug"

	"cbma/internal/fault"
	"cbma/internal/rx"
	"cbma/internal/tag"
)

// This file is the resilient round runner: every collision round — serial,
// parallel or adhoc — executes through resilientRound, which recovers
// panics into quarantined rounds and retries injected transient failures
// with a bounded attempt budget, so a single bad round degrades a campaign
// instead of killing it. Backoff is logical, not wall-clock: the retry
// budget is a fixed attempt count and the power controller's feedback
// backoff grows measurement batches — the simulator never sleeps, keeping
// runs deterministic and instant regardless of fault rates.

// RoundPanicError wraps a panic recovered while executing one round. It is
// never returned to callers — the round is quarantined instead — but it is
// the internal carrier between the recovery point and the quarantine
// accounting, and tests assert on it.
type RoundPanicError struct {
	// Round is the panicking round's index within its phase.
	Round uint64
	// Value is the recovered panic value; Stack the goroutine stack at
	// recovery time.
	Value any
	Stack []byte
	// Injected reports the panic was planted by the fault layer (the value
	// is fault.ErrInjectedPanic) rather than organic.
	Injected bool
}

// Error implements error.
func (e *RoundPanicError) Error() string {
	return fmt.Sprintf("sim: round %d panicked: %v", e.Round, e.Value)
}

// resilientRound executes one round with panic recovery and transient-retry
// handling. The execution-fault plan is drawn once, before the attempt
// loop, so a retry cannot re-roll the round's fate; each attempt rebuilds
// the round's stream node from scratch, so a successful retry is
// bit-identical to an undisturbed first attempt. A round that panics (or
// exhausts its transient retries) is returned as a quarantined roundResult
// with a nil error; only genuine configuration errors propagate.
func (e *Engine) resilientRound(active []*tag.Tag, rs *roundStreams, a *roundArena, recv *rx.Receiver) (roundResult, error) {
	var plan fault.ExecPlan
	maxRetries := 0
	if e.inj != nil {
		if e.inj.ExecFaults() {
			plan = e.inj.ExecPlan(rs.rng(StreamFaultExec))
		}
		maxRetries = e.inj.MaxRoundRetries()
	}
	transients := 0
	for attempt := 0; ; attempt++ {
		// Fresh stream node per attempt: streams consumed inside a
		// partially executed attempt are re-seeded on their next use, so
		// they cannot leak consumed draws into the retry.
		ars := newRoundStreams(rs.seed, rs.runSeq, rs.phase, rs.round, rs.gens)
		res, err := e.attemptRound(active, &ars, a, recv, plan, attempt)
		if err == nil {
			res.retries = attempt
			res.faults.TransientErrors += transients
			return res, nil
		}
		if pe, ok := err.(*RoundPanicError); ok {
			// A panic means the round's state is suspect and — being
			// deterministic — a retry would panic again. Quarantine.
			// The quarantine event fires here, at the failure site, so its
			// timestamp reflects when the round actually died; under parallel
			// execution these events interleave across rounds (the ordered
			// lifecycle record is commitRound's "round" event stream).
			if e.eobs.o.EmitsEvents() {
				e.eobs.o.Emit("round_quarantined", map[string]any{
					"round": rs.round, "attempt": attempt, "injected": pe.Injected,
				})
			}
			q := roundResult{quarantined: true, retries: attempt}
			q.faults.TransientErrors = transients
			if pe.Injected {
				q.faults.InjectedPanics = 1
			}
			return q, nil
		}
		if fault.IsTransient(err) {
			transients++
			if attempt < maxRetries {
				if e.eobs.o.EmitsEvents() {
					e.eobs.o.Emit("round_retry", map[string]any{
						"round": rs.round, "attempt": attempt,
					})
				}
				continue
			}
			if e.eobs.o.EmitsEvents() {
				e.eobs.o.Emit("round_quarantined", map[string]any{
					"round": rs.round, "attempt": attempt, "transient": true,
				})
			}
			q := roundResult{quarantined: true, retries: attempt}
			q.faults.TransientErrors = transients
			return q, nil
		}
		return res, err
	}
}

// attemptRound is one guarded attempt: the injected execution faults fire
// first (transient failures gate the attempt, then a planned panic goes
// through the real panic/recover machinery so the recovery path is
// genuinely exercised), then the round pipeline runs under recover.
func (e *Engine) attemptRound(active []*tag.Tag, rs *roundStreams, a *roundArena, recv *rx.Receiver, plan fault.ExecPlan, attempt int) (res roundResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			perr, isErr := r.(error)
			err = &RoundPanicError{
				Round:    rs.round,
				Value:    r,
				Stack:    debug.Stack(),
				Injected: isErr && errors.Is(perr, fault.ErrInjectedPanic),
			}
		}
	}()
	if attempt < plan.FailAttempts {
		return res, fmt.Errorf("%w (attempt %d)", fault.ErrTransient, attempt)
	}
	if plan.Panic {
		panic(fault.ErrInjectedPanic)
	}
	return e.executeRound(active, rs, a, recv)
}
