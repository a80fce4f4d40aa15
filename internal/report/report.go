// Package report renders experiment results as the aligned text tables and
// series the paper's figures show — shared by cmd/cbmabench and the
// bench_test.go harness so both emit identical rows.
package report

import (
	"fmt"
	"sort"
	"strings"

	"cbma/internal/sim"
	"cbma/internal/stats"
)

// Point is one sweep sample: an X coordinate (distance, power, …) or a
// condition label, and the metrics measured there.
type Point struct {
	X       float64
	Label   string
	Metrics sim.Metrics
}

// Series is a named curve, e.g. "3 tags" in Fig. 8(a).
type Series struct {
	Name   string
	Points []Point
}

// PowerDiffRow is one row of Table II: a two-tag collision case with the
// per-tag SNRs, their relative power difference and the measured error rate.
type PowerDiffRow struct {
	Case       string
	SNR1, SNR2 float64 // dB
	Difference float64 // |P1−P2| / max(P1,P2)
	ErrorRate  float64
}

// MetricFn extracts the plotted quantity from a point's metrics.
type MetricFn func(sim.Metrics) float64

// FER extracts the frame error rate (most figures).
func FER(m sim.Metrics) float64 { return m.FER }

// PRR extracts the packet reception rate (Fig. 12).
func PRR(m sim.Metrics) float64 { return m.PRR }

// DetectionFER extracts the frame-detection error rate (the Fig. 8 and
// Fig. 9(a) micro benchmarks).
func DetectionFER(m sim.Metrics) float64 { return m.DetectionFER }

// SeriesTable renders sweep results: one row per X value, one column per
// series.
//
//	distance(m)   2 tags   3 tags   4 tags
//	      0.10    0.0000   0.0100   0.0150
func SeriesTable(xLabel string, series []Series, f MetricFn) string {
	if len(series) == 0 {
		return "(no data)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%14s", xLabel)
	for _, s := range series {
		fmt.Fprintf(&b, "  %12s", s.Name)
	}
	b.WriteByte('\n')
	for i := range series[0].Points {
		fmt.Fprintf(&b, "%14.4g", series[0].Points[i].X)
		for _, s := range series {
			if i < len(s.Points) {
				fmt.Fprintf(&b, "  %12.4f", f(s.Points[i].Metrics))
			} else {
				fmt.Fprintf(&b, "  %12s", "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PointsTable renders labelled single points (Fig. 12's conditions).
func PointsTable(points []Point, f MetricFn, metricName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %10s\n", "condition", metricName)
	for _, p := range points {
		fmt.Fprintf(&b, "%-26s %10.4f\n", p.Label, f(p.Metrics))
	}
	return b.String()
}

// PowerDiffTable renders Table II rows sorted by power difference.
func PowerDiffTable(rows []PowerDiffRow) string {
	sorted := append([]PowerDiffRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Difference < sorted[j].Difference })
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %9s %9s %11s %10s\n", "case", "SNR1(dB)", "SNR2(dB)", "difference", "error rate")
	for _, r := range sorted {
		fmt.Fprintf(&b, "%-6s %9.1f %9.1f %10.2f%% %10.4f\n",
			r.Case, r.SNR1, r.SNR2, 100*r.Difference, r.ErrorRate)
	}
	return b.String()
}

// CDFTable renders named sample sets as quantiles of their empirical CDFs —
// the textual form of Fig. 10.
func CDFTable(names []string, sampleSets [][]float64) (string, error) {
	quantiles := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s", "P(FER <= x) quantile x at:")
	for _, q := range quantiles {
		fmt.Fprintf(&b, " %8.0f%%", q*100)
	}
	b.WriteByte('\n')
	for i, name := range names {
		c, err := stats.NewCDF(sampleSets[i])
		if err != nil {
			return "", fmt.Errorf("report: CDF %q: %w", name, err)
		}
		fmt.Fprintf(&b, "%-28s", name)
		for _, q := range quantiles {
			fmt.Fprintf(&b, " %9.4f", c.Quantile(q))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// FieldHeatmap renders a dBm grid (Fig. 5) as a coarse ASCII heat map, one
// character per cell from weakest (.) to strongest (#).
func FieldHeatmap(grid [][]float64) string {
	if len(grid) == 0 || len(grid[0]) == 0 {
		return "(empty field)\n"
	}
	min, max := grid[0][0], grid[0][0]
	for _, row := range grid {
		for _, v := range row {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
	}
	shades := []byte(".:-=+*%#")
	var b strings.Builder
	// Render top row (largest Y) first so the map is oriented like Fig. 5.
	for j := len(grid) - 1; j >= 0; j-- {
		for _, v := range grid[j] {
			idx := 0
			if max > min {
				idx = int(float64(len(shades)-1) * (v - min) / (max - min))
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(scale: '.' = %.1f dBm … '#' = %.1f dBm)\n", min, max)
	return b.String()
}

// UserDetection renders the §VII-B2 result.
func UserDetection(res sim.UserDetectionResult) string {
	return fmt.Sprintf("user detection: %d/%d trials exact (accuracy %.4f; paper reports 0.999)\n",
		res.Correct, res.Trials, res.Accuracy)
}

// Headline renders the throughput comparison.
func Headline(cbmaGoodput, tdmaGoodput, rawAggregate float64, tags int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-tag CBMA raw aggregate rate: %.2f Mbps (paper headline: 8 Mbps)\n",
		tags, rawAggregate/1e6)
	fmt.Fprintf(&b, "goodput: CBMA %.1f kbps vs single-tag TDMA %.1f kbps",
		cbmaGoodput/1e3, tdmaGoodput/1e3)
	if tdmaGoodput > 0 {
		fmt.Fprintf(&b, "  (gain %.1f×, paper claims >10×)", cbmaGoodput/tdmaGoodput)
	}
	b.WriteByte('\n')
	return b.String()
}
