package sim

import "cbma/internal/obs"

// engineObs caches the engine's telemetry instruments: registry lookups take
// a mutex, so they happen once at engine construction and the round hot path
// touches only pre-resolved atomics. The zero value (nil observer) turns
// every operation into a no-op — the pipeline carries no telemetry branches.
type engineObs struct {
	o *obs.Observer
	// Stage timing of the round pipeline (executeRound).
	build, mix, decode *obs.Histogram
	// Round lifecycle counters (commitRound).
	executed    *obs.Counter
	quarantined *obs.Counter
	retries     *obs.Counter
	faults      *obs.Counter
}

// newEngineObs resolves the engine's instruments against o's registry.
func newEngineObs(o *obs.Observer) engineObs {
	return engineObs{
		o:           o,
		build:       o.Histogram("sim.stage.build_ns"),
		mix:         o.Histogram("sim.stage.mix_ns"),
		decode:      o.Histogram("sim.stage.decode_ns"),
		executed:    o.Counter("sim.rounds.executed"),
		quarantined: o.Counter("sim.rounds.quarantined"),
		retries:     o.Counter("sim.rounds.retries"),
		faults:      o.Counter("sim.faults.fired"),
	}
}

// record accounts one committed round and, when a sink is attached, emits
// its lifecycle (and fault) events. Called only from Engine.commitRound,
// which runs in round order on a single goroutine even under parallel
// execution — so the round event stream is ordered like the serial run's.
func (eo *engineObs) record(round uint64, res roundResult) {
	if eo.o == nil {
		return
	}
	if res.quarantined {
		eo.quarantined.Inc()
	} else {
		eo.executed.Inc()
	}
	if res.retries > 0 {
		eo.retries.Add(int64(res.retries))
	}
	if n := res.faults.Total(); n > 0 {
		eo.faults.Add(int64(n))
	}
	if !eo.o.EmitsEvents() {
		return
	}
	f := map[string]any{
		"round":     round,
		"sent":      res.sent,
		"delivered": len(res.delivered),
		"acked":     len(res.acked),
	}
	if res.quarantined {
		f["quarantined"] = true
	}
	if res.retries > 0 {
		f["retries"] = res.retries
	}
	eo.o.Emit("round", f)
	if ff := res.faults.Fields(); ff != nil {
		ff["round"] = round
		eo.o.Emit("faults_fired", ff)
	}
}
