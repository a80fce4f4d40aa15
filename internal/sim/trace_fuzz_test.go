package sim

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"cbma/internal/trace"
)

// replayAllocLimit bounds what one replayed 2-tag, 2-packet run may
// allocate. A clean replay of the fuzz scenario allocates well under a
// megabyte; the bound leaves room for growth while staying far below what
// an unbounded recorded delay (a mixing buffer sized by the trace) costs.
const replayAllocLimit = 64 << 20

// FuzzTraceReplay feeds arbitrary bytes to trace.Read and replays every
// trace that parses into a 2-tag, 2-packet engine. Trace files are
// untrusted input: the replay must end in success or a typed error
// (exhaustion, a missing tag, an over-long delay spread), never panic, and
// allocate a bounded amount whatever delays and gains the trace records.
func FuzzTraceReplay(f *testing.F) {
	scn := fastScenario()
	scn.Packets = 2
	scn.Workers = 1

	live, err := NewEngine(scn)
	if err != nil {
		f.Fatal(err)
	}
	rec := trace.NewRecorder("fuzz seed")
	live.RecordTo(rec)
	if _, err := live.Run(); err != nil {
		f.Fatal(err)
	}
	var recorded bytes.Buffer
	if err := rec.Trace().Write(&recorded); err != nil {
		f.Fatal(err)
	}
	f.Add(recorded.Bytes())
	const header = `{"format":"cbma-trace/1","rounds":2}` + "\n"
	f.Add([]byte(header +
		`{"seq":0,"tags":[{"tag":0,"gain_re":1e-3,"delay_chips":0},{"tag":1,"gain_re":1e-3,"delay_chips":1e9}]}` + "\n" +
		`{"seq":1,"tags":[{"tag":0,"gain_re":1e-3},{"tag":1,"gain_re":1e-3}]}` + "\n"))
	f.Add([]byte(header +
		`{"seq":0,"tags":[{"tag":0,"gain_re":1e308,"gain_im":-1e308,"delay_chips":-1e308},{"tag":1,"delay_chips":1e308}]}` + "\n" +
		`{"seq":1,"tags":[{"tag":0,"gain_re":1e308,"delay_chips":0.5},{"tag":1,"gain_im":1e308,"delay_chips":0.25}]}` + "\n"))
	f.Add([]byte(header + `{"seq":0,"tags":[{"tag":0}]}` + "\n" + `{"seq":1,"tags":[]}` + "\n"))
	f.Add([]byte(`{"format":"cbma-trace/1","rounds":0}` + "\n"))
	f.Add([]byte("not a trace"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		e, err := NewEngine(scn)
		if err != nil {
			t.Fatal(err)
		}
		e.ReplayFrom(trace.NewPlayer(tr))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = e.Run()
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrDelaySpread) &&
			!errors.Is(err, trace.ErrExhausted) && !errors.Is(err, trace.ErrTagCount) {
			t.Fatalf("replay failed with an untyped error: %v", err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > replayAllocLimit {
			t.Fatalf("replay allocated %d bytes, limit %d", n, replayAllocLimit)
		}
	})
}
