package sim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"cbma/internal/fault"
	"cbma/internal/frame"
	"cbma/internal/geom"
	"cbma/internal/pn"
)

// fastScenario returns a scenario small enough for unit tests.
func fastScenario() Scenario {
	scn := DefaultScenario()
	scn.PayloadBytes = 8
	scn.Packets = 30
	return scn
}

func packets(t *testing.T, full int) int {
	t.Helper()
	if testing.Short() {
		return full / 4
	}
	return full
}

func TestScenarioValidation(t *testing.T) {
	tests := []struct {
		name string
		mod  func(*Scenario)
		want error
	}{
		{"zero tags", func(s *Scenario) { s.NumTags = 0 }, ErrBadTagCount},
		{"zero packets", func(s *Scenario) { s.Packets = 0 }, ErrBadPackets},
		{"oversized payload", func(s *Scenario) { s.PayloadBytes = 200 }, nil},
		{"too few positions", func(s *Scenario) {
			s.Deployment.Tags = []geom.Point{{X: 1}}
			s.NumTags = 3
		}, ErrNoPositions},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			scn := fastScenario()
			tc.mod(&scn)
			_, err := NewEngine(scn)
			if err == nil {
				t.Fatal("want error")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
		})
	}
}

// TestNewEngineRejectsDelaySpread pins the bound on tag delays: the mixing
// buffer grows linearly with their relative spread, so NewEngine refuses a
// spread longer than one frame, or a non-finite one, before any round can
// size a buffer by it. The Fig. 11 range stays accepted.
func TestNewEngineRejectsDelaySpread(t *testing.T) {
	tests := []struct {
		name string
		mod  func(*Scenario)
		want error
	}{
		{"fig11 delays", func(s *Scenario) { s.ExtraDelayChips = []float64{0, 5} }, nil},
		{"huge extra delay", func(s *Scenario) { s.ExtraDelayChips = []float64{0, 1e9} }, ErrDelaySpread},
		{"huge advance", func(s *Scenario) { s.ExtraDelayChips = []float64{-1e9, 0} }, ErrDelaySpread},
		{"infinite extra delay", func(s *Scenario) { s.ExtraDelayChips = []float64{0, math.Inf(1)} }, ErrDelaySpread},
		{"NaN extra delay", func(s *Scenario) { s.ExtraDelayChips = []float64{math.NaN(), 0} }, ErrDelaySpread},
		{"extra delay beyond tag count ignored", func(s *Scenario) { s.ExtraDelayChips = []float64{0, 1, 1e9} }, nil},
		{"huge jitter", func(s *Scenario) { s.JitterChips = 1e9 }, ErrDelaySpread},
		{"huge negative jitter", func(s *Scenario) { s.JitterChips = -1e9 }, ErrDelaySpread},
		{"NaN jitter", func(s *Scenario) { s.JitterChips = math.NaN() }, ErrDelaySpread},
		{"huge fault drift", func(s *Scenario) { s.Fault = &fault.Profile{ClockDriftChips: 1e9} }, ErrDelaySpread},
		{"huge fault jitter", func(s *Scenario) { s.Fault = &fault.Profile{ExtraJitterChips: 1e9} }, ErrDelaySpread},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			scn := fastScenario()
			tc.mod(&scn)
			_, err := NewEngine(scn)
			if !errors.Is(err, tc.want) {
				t.Fatalf("NewEngine: got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestSamplesPerChipClamping(t *testing.T) {
	tests := []struct {
		chip, sample float64
		want         int
	}{
		{1e6, 20e6, MaxSamplesPerChip}, // 20 clamps to cap
		{5e6, 20e6, 4},
		{20e6, 20e6, 1},
		{40e6, 20e6, 1}, // sub-sample clamps up to 1
		{0, 0, 4},       // defaults
	}
	for _, tc := range tests {
		scn := Scenario{ChipRateHz: tc.chip, SampleRateHz: tc.sample}
		if got := scn.SamplesPerChip(); got != tc.want {
			t.Errorf("chip=%v fs=%v: spc %d, want %d", tc.chip, tc.sample, got, tc.want)
		}
	}
}

func TestEngineDeterminism(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 3
	run := func() Metrics {
		e, err := NewEngine(scn)
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed must give identical metrics:\n%+v\n%+v", a, b)
	}
}

func TestEngineSeedChangesOutcome(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 4
	scn.TagLineDistance = 3.5
	e1, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := e1.Run()
	if err != nil {
		t.Fatal(err)
	}
	scn.Seed = 999
	e2, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m1.FramesDelivered == m2.FramesDelivered && m1.AirtimeSeconds == m2.AirtimeSeconds {
		t.Log("outcomes identical across seeds — suspicious but possible; check airtime variance")
	}
}

func TestTwoTagsEasyCaseDelivers(t *testing.T) {
	scn := fastScenario()
	scn.Packets = packets(t, 60)
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.FramesSent != 2*scn.Packets {
		t.Errorf("sent %d, want %d", m.FramesSent, 2*scn.Packets)
	}
	if m.FER > 0.1 {
		t.Errorf("FER %v too high for 2 tags at 1 m", m.FER)
	}
	if m.GoodputBps <= 0 || m.RawAggregateBps <= 0 {
		t.Errorf("rates must be positive: %+v", m)
	}
}

func TestFERIncreasesWithDistance(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 2
	// The full budget even under -short: at 20 packets both distances
	// measure FER 0, and the ordering cannot show.
	scn.Packets = 80
	run := func(d float64) float64 {
		s := scn
		s.TagLineDistance = d
		s.Deployment.Tags = nil
		return runPoints(t, []Scenario{s})[0].FER
	}
	near, far := run(1.0), run(4.0)
	if far <= near {
		t.Errorf("FER at 4 m (%v) must exceed FER at 1 m (%v) — Fig. 8(a) shape", far, near)
	}
}

func TestFERDropsWithTxPower(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 3
	scn.TagLineDistance = 3
	scn.Packets = packets(t, 80)
	run := func(p float64) float64 {
		s := scn
		s.Deployment.Tags = nil
		s.Channel.TxPowerDBm = p
		return runPoints(t, []Scenario{s})[0].FER
	}
	weak, strong := run(-5), run(20)
	if weak <= strong {
		t.Errorf("FER at -5 dBm (%v) must exceed FER at 20 dBm (%v) — Fig. 8(b) shape", weak, strong)
	}
	if weak < 0.5 {
		t.Errorf("at -5 dBm the backscatter should be buried in noise (FER %v)", weak)
	}
}

func TestRunWithPositions(t *testing.T) {
	scn := fastScenario()
	scn.Packets = packets(t, 20)
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunWithPositions([]geom.Point{{X: 1}}); !errors.Is(err, ErrNoPositions) {
		t.Fatalf("got %v, want ErrNoPositions", err)
	}
	m, err := e.RunWithPositions([]geom.Point{{X: 0, Y: 0.5}, {X: 0, Y: -0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if m.FramesSent == 0 {
		t.Error("no frames sent after re-homing")
	}
	if e.Tags()[0].Position() != (geom.Point{X: 0, Y: 0.5}) {
		t.Error("tag not moved")
	}
}

func TestPowerControlLoopRuns(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 3
	scn.Packets = packets(t, 60)
	scn.PowerControl = true
	scn.PacketsPerRound = 10
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.PowerControlRounds == 0 {
		t.Error("power control loop never ran")
	}
}

func TestOraclePowerControlEqualizesStates(t *testing.T) {
	scn := fastScenario()
	scn.NumTags = 2
	scn.Packets = 5
	scn.PowerControl = true
	scn.OraclePowerControl = true
	// One near, one far tag: oracle must pick different impedance states.
	scn.Deployment = geom.NewDeployment(0.5)
	scn.Deployment.Tags = []geom.Point{{X: 0.3, Y: 0.2}, {X: -2.5, Y: 1.5}}
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near := e.Tags()[0].Impedance()
	far := e.Tags()[1].Impedance()
	if near >= far {
		t.Errorf("near tag state %d should be weaker than far tag state %d", near, far)
	}
}

func TestMetricsFinalize(t *testing.T) {
	m := Metrics{NumTags: 4, FramesSent: 100, FramesDelivered: 90, AirtimeSeconds: 2}
	scn := Scenario{PayloadBytes: 10, ChipRateHz: 1e6}
	m.finalize(scn)
	if math.Abs(m.FER-0.1) > 1e-12 {
		t.Errorf("FER = %v", m.FER)
	}
	if m.PRR != 0.9 {
		t.Errorf("PRR = %v", m.PRR)
	}
	if want := 90.0 * 80 / 2; m.GoodputBps != want {
		t.Errorf("goodput %v, want %v", m.GoodputBps, want)
	}
	if want := 4 * 1e6 * 0.9; m.RawAggregateBps != want {
		t.Errorf("raw %v, want %v", m.RawAggregateBps, want)
	}
}

func TestMetricsZeroDivision(t *testing.T) {
	var m Metrics
	m.finalize(Scenario{})
	if m.FER != 1 || m.GoodputBps != 0 {
		t.Errorf("zero-run metrics: %+v", m)
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{NumTags: 2, FramesSent: 10, FramesDelivered: 9, FER: 0.1}
	if s := m.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestFrameConfigPropagates(t *testing.T) {
	scn := fastScenario()
	scn.Frame = frame.Config{PreambleBits: 16}
	scn.Packets = packets(t, 20)
	e, err := NewEngine(scn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if m.FER > 0.2 {
		t.Errorf("16-bit preamble 2-tag FER %v", m.FER)
	}
}

func TestAllFamiliesRun(t *testing.T) {
	for _, fam := range []pn.Family{pn.FamilyGold, pn.Family2NC, pn.FamilyWalsh, pn.FamilyKasami} {
		scn := fastScenario()
		scn.Family = fam
		scn.Packets = packets(t, 20)
		e, err := NewEngine(scn)
		if err != nil {
			t.Fatalf("%v: %v", fam, err)
		}
		m, err := e.Run()
		if err != nil {
			t.Fatalf("%v: %v", fam, err)
		}
		if m.FER > 0.5 {
			t.Errorf("%v: FER %v suspiciously high for the easy 2-tag case", fam, m.FER)
		}
	}
}
