package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"cbma/internal/channel"
	"cbma/internal/fault"
)

// goldenShape is one fixture of the pinned shape matrix: a scenario and,
// for the RunSchedule shape, the schedule it runs instead of Run.
type goldenShape struct {
	name     string
	scn      Scenario
	schedule [][]int
}

// goldenShapes is the shape matrix whose Metrics digests are pinned below.
// Together the shapes cover both code lengths (hence both the direct and
// the FFT matched-filter receiver paths), the SIC receiver, every optional
// channel stage, the fault streams, the Algorithm 1 exploration rounds and
// the adhoc RunSchedule path. Packet counts are fixed (never scaled by
// -short): the digests are of these exact runs.
func goldenShapes() []goldenShape {
	fig8a := DefaultScenario()
	fig8a.NumTags = 3
	fig8a.PayloadBytes = 8
	fig8a.Packets = 16
	fig8a.TagLineDistance = 2.0
	fig8a.Deployment.Tags = nil
	fig8a.Seed = DeriveSeed(fig8a.Seed, seedSweepDistance, 4, 3)

	gold127 := DefaultScenario()
	gold127.NumTags = 6
	gold127.GoldDegree = 7
	gold127.PayloadBytes = 8
	gold127.Packets = 6
	gold127.SIC = true
	gold127.Seed = 127

	cfo := fastScenario()
	cfo.NumTags = 3
	cfo.Packets = 12
	cfo.CFOppm = 0.1
	cfo.PhaseTracking = true
	cfo.Seed = 3

	ofdm := fastScenario()
	ofdm.NumTags = 3
	ofdm.Packets = 12
	ofdm.OFDMExcitation = true
	ofdm.Seed = 4

	mp := channel.Multipath{Taps: 3, TapSpacingSec: 50e-9, DecayDB: 6}
	multipath := fastScenario()
	multipath.NumTags = 3
	multipath.Packets = 12
	multipath.Multipath = &mp
	multipath.Interferers = []channel.Interferer{
		&channel.WiFiInterferer{PowerDBm: multipath.Channel.NoiseFloorDBm + 10},
		&channel.BluetoothInterferer{PowerDBm: multipath.Channel.NoiseFloorDBm + 10},
	}
	multipath.Seed = 5

	faulted := fastScenario()
	faulted.NumTags = 3
	faulted.Packets = 16
	faulted.PowerControl = true
	faulted.RandomInitialImpedance = true
	faulted.Fault = &fault.Profile{
		StuckImpedanceProb: 0.3,
		ClockDriftChips:    0.2,
		ExtraJitterChips:   0.2,
		EnergyOutageProb:   0.1,
		AckLossProb:        0.2,
		AckCorruptProb:     0.1,
		SpuriousAckProb:    0.05,
		FeedbackRetries:    2,
		BurstProb:          0.1,
		DeepFadeProb:       0.1,
		PanicProb:          0.05,
		TransientErrProb:   0.1,
	}
	faulted.Seed = 6

	pc := fastScenario()
	pc.NumTags = 3
	pc.Packets = 12
	pc.PacketsPerRound = 8
	pc.PowerControl = true
	pc.RandomInitialImpedance = true
	pc.Seed = 7

	sched := fastScenario()
	sched.NumTags = 4
	sched.Packets = 1
	sched.Seed = 8

	return []goldenShape{
		{name: "fig8a-gold31", scn: fig8a},
		{name: "gold127-sic", scn: gold127},
		{name: "cfo", scn: cfo},
		{name: "ofdm", scn: ofdm},
		{name: "multipath+intf", scn: multipath},
		{name: "faulted", scn: faulted},
		{name: "powercontrol", scn: pc},
		{name: "schedule", scn: sched, schedule: [][]int{
			{0}, {1}, {2}, {3}, {0, 1}, {1, 2, 3}, {0, 1, 2, 3}, {3, 0}, {2},
		}},
	}
}

// runGoldenShape runs one shape on a fresh engine.
func runGoldenShape(t *testing.T, g goldenShape) Metrics {
	t.Helper()
	e, err := NewEngine(g.scn)
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	var m Metrics
	if g.schedule != nil {
		m, err = e.RunSchedule(g.schedule)
	} else {
		m, err = e.Run()
	}
	if err != nil {
		t.Fatalf("%s: %v", g.name, err)
	}
	return m
}

// metricsDigest is the SHA-256 of a Metrics value's JSON encoding — the
// bytes every serving and caching layer transports.
func metricsDigest(t *testing.T, m Metrics) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenMetricsDigests pins the Metrics of every shape to the bytes the
// simulator produced when the digests were recorded. The self-consistency
// suites (worker, sync, telemetry, shard equivalence) prove a run equal to
// another run of the same commit; these digests prove a refactor equal to
// the commit before it. A change that alters a draw or a floating-point
// association fails here even when every self-consistency suite stays
// green. Re-pin only in a change that deliberately bumps the result
// version (and the scenario-hash schema with it).
var goldenMetricsDigests = map[string]string{
	"fig8a-gold31":   "6b7b27d880a44b8b8b86ea2909e6c609a6d7d566a14d62188278cccf5def4aa9",
	"gold127-sic":    "ab329675c071e9a26518e5a53e7a8797a265074d9f9b62d2df782dd09d281e92",
	"cfo":            "fddbb632cd8bde99494b0830ffca8edd72b1f275b8dc9f5f350ec2e2e4acddc2",
	"ofdm":           "dba05ee475027c2539f8423a9f1554980ae40ebd06f96a18901e4a773f64f0c8",
	"multipath+intf": "fecc3197fd1823fc4c0e90c940d4708ade22f1f3bec380100efeeb94316585b4",
	"faulted":        "c22742e47d8e32df120335d72ea6d0f048a7da1fab89a8639664fd5bb1d6bef2",
	"powercontrol":   "22ab5900bdc1ed0b4a19f508aca306d00f876e175a85af15aa42740fcb3deffb",
	"schedule":       "7968d8360a0cce5c5882832756ef5280aac49822b20d27dc79bbb73bb7685aec",
}

// TestMetricsGolden checks every shape of the matrix against its pinned
// digest. It runs on amd64 only: other architectures may fuse
// multiply-adds (Go permits FMA contraction), which legitimately changes
// low-order bits.
func TestMetricsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, g := range goldenShapes() {
		t.Run(g.name, func(t *testing.T) {
			got := metricsDigest(t, runGoldenShape(t, g))
			if want := goldenMetricsDigests[g.name]; got != want {
				t.Errorf("Metrics digest %s, pinned %s", got, want)
			}
		})
	}
}
