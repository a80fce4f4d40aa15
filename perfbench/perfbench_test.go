package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestMetricNamesAndUnitsParse(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the endToEnd table")
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the perLayer table")
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q/%q in BENCHMARK.json, %q/%q in the table", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why longer than 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(s metricSpec, e2e bool) {
		if !nameRe.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q malformed or repeated", s.Name)
		}
		seen[s.Name] = true
		if !unitRe.MatchString(s.Unit) {
			t.Errorf("metric %s: unit %q malformed", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %s: better %q", s.Name, s.Better)
		}
		if e2e && (s.Bound <= 0 || s.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		if !e2e && s.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", s.Name)
		}
	}
	for _, s := range f.EndToEnd {
		check(s, true)
	}
	for _, s := range f.PerLayer {
		check(s, false)
	}
	if s := f.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s in s, lower", s)
	}
	for _, s := range f.EndToEnd {
		if s.Bound > f.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", s.Name)
		}
	}
}

func TestResultLineCarriesExactlyTheModeMetrics(t *testing.T) {
	o := newOutcome()
	o.Attempted = 3
	for _, s := range endToEnd {
		o.Metrics[s.Name] = 1.5
	}
	o.Metrics["core.cache_hits"] = 2 // a per-layer metric must not leak
	r, err := result(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(endToEnd) || !r.Correct {
		t.Fatalf("result %+v: want %d metrics and correct", r, len(endToEnd))
	}
	for _, s := range endToEnd {
		if r.Metrics[s.Name].Unit != s.Unit {
			t.Errorf("%s: unit %q, want %q", s.Name, r.Metrics[s.Name].Unit, s.Unit)
		}
	}
	if _, err := result(o, true); err == nil {
		t.Error("traced result with per-layer metrics missing: want error")
	}
	o.Metrics["setup_s"] = math.NaN()
	if _, err := result(o, false); err == nil {
		t.Error("NaN metric: want error")
	}
	o.Metrics["setup_s"] = 1
	o.fail(1, "perturbed")
	if r, _ := result(o, false); r.Correct || r.Failed != 1 {
		t.Errorf("failed outcome reported %+v", r)
	}
}

func TestPercentileEligibility(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		q        float64
		eligible bool
	}{
		{92, 0.9, true}, {91, 0.9, false}, {902, 0.99, true}, {901, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false}, {5, 0.5, false}, {0, 0.5, false},
	} {
		p := percentile(seq(c.n), c.q)
		if p.Eligible != c.eligible {
			t.Errorf("n=%d q=%v: eligible %v, want %v (%+v)", c.n, c.q, p.Eligible, c.eligible, p)
		}
		if p.Eligible && p.Beyond < minTail {
			t.Errorf("n=%d q=%v: reported with %d beyond", c.n, c.q, p.Beyond)
		}
		if !p.Eligible && p.Used > c.q {
			t.Errorf("n=%d q=%v: fallback raised the quantile to %v", c.n, c.q, p.Used)
		}
		if c.n > 2*minTail && !p.Eligible && p.Beyond < minTail {
			t.Errorf("n=%d q=%v: fallback %v still has only %d beyond", c.n, c.q, p.Used, p.Beyond)
		}
	}
	if p := percentile(seq(101), 0.9); p.Value != 91 {
		t.Errorf("p90 of 1..101 = %v, want 91", p.Value)
	}
}

func TestFERCheckCatchesPerturbedResult(t *testing.T) {
	// The cold campaigns a 20 s run checks, at about 700 and 30 rounds/s.
	for g, campaigns := range map[*grid]int{&fig8aGrid: 5, &denseGrid: 7} {
		var sent int64
		for _, n := range g.Tags {
			sent += int64(campaigns * n * len(g.Distances) * g.Packets)
		}
		ref := int64(math.Round(g.RefFER * float64(sent)))
		if err := g.checkFER(sent, ref); err != nil {
			t.Errorf("%s: reference result rejected: %v", g.Name, err)
		}
		// A decoder that loses a tenth of all frames, or every frame.
		for _, bad := range []int64{ref + sent/10, sent} {
			if err := g.checkFER(sent, bad); err == nil {
				t.Errorf("%s: %d of %d frames missed passed the check", g.Name, bad, sent)
			}
		}
	}
}

func TestServedCheckCatchesPerturbedResult(t *testing.T) {
	jobs := jobStream(7, 1500*time.Millisecond)
	var warm int
	for i := range jobs {
		if jobs[i].Warm {
			warm = i
		}
		for k := range jobs[i].Points {
			jobs[i].Points[k].Packets = 2 // keep the oracle cheap
		}
	}
	if warm == 0 {
		t.Fatal("stream has no warm job")
	}
	oracle, err := directResults(jobs)
	if err != nil {
		t.Fatal(err)
	}
	served := func() []jobRecord {
		recs := make([]jobRecord, len(jobs))
		for i, j := range jobs {
			recs[i].Status = "done"
			for _, p := range j.Points {
				h, _ := p.Hash()
				recs[i].Results = append(recs[i].Results, servedPoint{Metrics: oracle[h], ScenarioHash: h, Cached: j.Warm})
			}
		}
		return recs
	}
	o := newOutcome()
	checkServed(o, jobs, served(), oracle)
	if o.Failed != 0 {
		t.Fatalf("faithful results failed the check: %v", o.Meta["failures"])
	}

	recs := served()
	var m map[string]any
	if err := json.Unmarshal(recs[0].Results[0].Metrics, &m); err != nil {
		t.Fatal(err)
	}
	m["FramesDelivered"] = m["FramesDelivered"].(float64) - 1
	recs[0].Results[0].Metrics, _ = json.Marshal(m)
	recs[warm].Results[0].Cached = false
	o = newOutcome()
	checkServed(o, jobs, recs, oracle)
	if o.Failed != 2 {
		t.Errorf("perturbed metrics and an uncached warm job: %d failures, want 2 (%v)", o.Failed, o.Meta["failures"])
	}
}

func TestJobStreamIsSeeded(t *testing.T) {
	a, b := jobStream(3, 5*time.Second), jobStream(3, 5*time.Second)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("same seed, different job streams")
	}
	if c, _ := json.Marshal(jobStream(4, 5*time.Second)); string(c) == string(ja) {
		t.Fatal("different seeds, same job stream")
	}
	for i, j := range a {
		if !j.Warm {
			continue
		}
		found := false
		for _, src := range a[:i] {
			if !src.Warm && reflect.DeepEqual(src.Points, j.Points) && src.Due <= j.Due-warmMinAge {
				found = true
			}
		}
		if !found {
			t.Errorf("warm job %d repeats no cold job due %v earlier", i, warmMinAge)
		}
	}
}
