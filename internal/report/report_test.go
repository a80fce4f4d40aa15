package report

import (
	"strings"
	"testing"

	"cbma/internal/sim"
)

func sampleSeries() []Series {
	return []Series{
		{Name: "2 tags", Points: []Point{
			{X: 1, Metrics: sim.Metrics{FER: 0.01, PRR: 0.99}},
			{X: 2, Metrics: sim.Metrics{FER: 0.05, PRR: 0.95}},
		}},
		{Name: "3 tags", Points: []Point{
			{X: 1, Metrics: sim.Metrics{FER: 0.02, PRR: 0.98}},
		}},
	}
}

func TestSeriesTable(t *testing.T) {
	out := SeriesTable("distance(m)", sampleSeries(), FER)
	if !strings.Contains(out, "2 tags") || !strings.Contains(out, "3 tags") {
		t.Errorf("missing headers:\n%s", out)
	}
	if !strings.Contains(out, "0.0100") {
		t.Errorf("missing value:\n%s", out)
	}
	// Ragged series render a dash.
	if !strings.Contains(out, "-") {
		t.Errorf("ragged cell not dashed:\n%s", out)
	}
	if got := SeriesTable("x", nil, FER); got != "(no data)\n" {
		t.Errorf("empty: %q", got)
	}
}

func TestMetricFns(t *testing.T) {
	m := sim.Metrics{FER: 0.25, PRR: 0.75}
	if FER(m) != 0.25 || PRR(m) != 0.75 {
		t.Error("metric extractors wrong")
	}
}

func TestPointsTable(t *testing.T) {
	pts := []Point{
		{Label: "no interference", Metrics: sim.Metrics{PRR: 0.99}},
		{Label: "ofdm excitation", Metrics: sim.Metrics{PRR: 0.5}},
	}
	out := PointsTable(pts, PRR, "PRR")
	if !strings.Contains(out, "no interference") || !strings.Contains(out, "0.5000") {
		t.Errorf("bad table:\n%s", out)
	}
}

func TestPowerDiffTableSorted(t *testing.T) {
	rows := []PowerDiffRow{
		{Case: "2", Difference: 0.6, ErrorRate: 0.2, SNR1: 8, SNR2: 4},
		{Case: "1", Difference: 0.05, ErrorRate: 0.003, SNR1: 5, SNR2: 5},
	}
	out := PowerDiffTable(rows)
	if strings.Index(out, "case") > strings.Index(out, "5.00%") {
		t.Errorf("header not first:\n%s", out)
	}
	if strings.Index(out, "5.00%") > strings.Index(out, "60.00%") {
		t.Errorf("rows not sorted by difference:\n%s", out)
	}
	// Input slice must not be reordered.
	if rows[0].Case != "2" {
		t.Error("input mutated")
	}
}

func TestCDFTable(t *testing.T) {
	out, err := CDFTable(
		[]string{"no control", "power control"},
		[][]float64{{0.1, 0.2, 0.3}, {0.01, 0.02, 0.03}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no control") || !strings.Contains(out, "power control") {
		t.Errorf("missing rows:\n%s", out)
	}
	if _, err := CDFTable([]string{"x"}, [][]float64{nil}); err == nil {
		t.Error("empty samples must fail")
	}
}

func TestFieldHeatmap(t *testing.T) {
	grid := [][]float64{
		{-80, -70},
		{-60, -40},
	}
	out := FieldHeatmap(grid)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines: %v", lines)
	}
	// Strongest cell (-40, top row rendered first because it has larger j)
	// must be '#', weakest '.'.
	if !strings.Contains(lines[0], "#") {
		t.Errorf("top row missing strongest shade: %q", lines[0])
	}
	if !strings.Contains(lines[1], ".") {
		t.Errorf("bottom row missing weakest shade: %q", lines[1])
	}
	if FieldHeatmap(nil) != "(empty field)\n" {
		t.Error("empty grid")
	}
	// Flat field must not divide by zero.
	flat := FieldHeatmap([][]float64{{-50, -50}})
	if !strings.Contains(flat, "..") {
		t.Errorf("flat field: %q", flat)
	}
}

func TestUserDetectionRender(t *testing.T) {
	out := UserDetection(sim.UserDetectionResult{Trials: 100, Correct: 99, Accuracy: 0.99})
	if !strings.Contains(out, "99/100") || !strings.Contains(out, "0.9900") {
		t.Errorf("bad render: %q", out)
	}
}

func TestHeadlineRender(t *testing.T) {
	out := Headline(800e3, 70e3, 8e6, 10)
	if !strings.Contains(out, "8.00 Mbps") || !strings.Contains(out, "11.4×") {
		t.Errorf("bad render: %q", out)
	}
	zero := Headline(800e3, 0, 8e6, 10)
	if strings.Contains(zero, "gain") {
		t.Errorf("zero TDMA must omit gain: %q", zero)
	}
}
