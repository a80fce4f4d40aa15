package shard

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cbma/internal/obs"
	"cbma/internal/serve/core"
	"cbma/internal/sim"
)

func journalHashes(t *testing.T, points []sim.Scenario) []string {
	t.Helper()
	hashes := make([]string, len(points))
	for i := range points {
		h, err := points[i].Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	return hashes
}

// fixedTransport delivers the same Metrics for every assigned point, so a
// result read back later is recognisably the committed one, not a rerun.
type fixedTransport struct{ m sim.Metrics }

func (f fixedTransport) Execute(ctx context.Context, a Assignment, sink Sink) error {
	for _, i := range a.Indices {
		if err := sink.Deliver(PointResult{Index: i, Metrics: f.m}); err != nil {
			return err
		}
	}
	return nil
}

// TestJournalRoundTrip: commit, restart, read back — the committed point
// survives a coordinator restart byte-identically. The journal addresses
// points by (scenario hash, seed) alone, so the same point at another
// campaign index is the same entry, and an uncommitted point still runs.
func TestJournalRoundTrip(t *testing.T) {
	points := campaignPoints(t, false)
	dir := t.TempDir()

	m := sim.Metrics{FramesSent: 7, FramesDelivered: 5, FER: 0.25}
	c1 := New(Config{Transport: fixedTransport{m}, JournalRoot: dir})
	if _, err := c1.Run(context.Background(), points[2:3], sim.CampaignOpts{}); err != nil {
		t.Fatal(err)
	}

	run := newIndexCountingRunner()
	c2 := New(Config{Transport: Local{Runner: run}, JournalRoot: dir})
	got, err := c2.Run(context.Background(), []sim.Scenario{points[1], points[2]}, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	metricsEqualJSON(t, []sim.Metrics{m}, got[1:])
	if n := run.total(); n != 1 {
		t.Fatalf("executed %d points, want 1 (only the uncommitted one)", n)
	}
	want, err := sim.RunCampaign(points[1:2], sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	metricsEqualJSON(t, want, got[:1])
}

// TestJournalCrossCampaignReuse: two campaigns share one journal root.
// The second reorders and repeats a point the first committed; only its
// genuinely new point executes, and its results are bit-identical to a
// single-process run of the same campaign.
func TestJournalCrossCampaignReuse(t *testing.T) {
	p := campaignPoints(t, false)
	root := t.TempDir()

	a := []sim.Scenario{p[0], p[1]}
	ca := New(Config{Shards: 2, Transport: Local{}, JournalRoot: root, Backoff: time.Millisecond})
	if _, err := ca.Run(context.Background(), a, sim.CampaignOpts{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	b := []sim.Scenario{p[2], p[1], p[1]}
	want, err := sim.RunCampaign(b, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := newIndexCountingRunner()
	o := obs.New(obs.Config{})
	cb := New(Config{Shards: 2, Transport: Local{Runner: run}, JournalRoot: root, Backoff: time.Millisecond, Obs: o})
	got, err := cb.Run(context.Background(), b, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	metricsEqualJSON(t, want, got)
	h2 := journalHashes(t, p[2:3])[0]
	if n := run.total(); n != 1 || run.counts[h2] != 1 {
		t.Errorf("campaign B executed %v, want exactly one run of p2", run.counts)
	}
	if n := o.Counter("shard.points.restored").Value(); n != 2 {
		t.Errorf("campaign B restored %d points, want 2", n)
	}
}

// TestJournalIsResultCache: the journal and the result cache share one
// format, so after a sharded run the journal directory opened as a plain
// core.DiskStore serves every committed point's Metrics.
func TestJournalIsResultCache(t *testing.T) {
	points := campaignPoints(t, false)
	root := t.TempDir()
	c := New(Config{Shards: 2, Transport: Local{}, JournalRoot: root, Backoff: time.Millisecond})
	want, err := c.Run(context.Background(), points, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	store, err := core.NewDiskStore(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range journalHashes(t, points) {
		e, ok := store.Get(core.Key{ScenarioHash: h, Seed: points[i].Seed})
		if !ok {
			t.Fatalf("point %d missing from the journal read as a result cache", i)
		}
		metricsEqualJSON(t, want[i:i+1], []sim.Metrics{e.Metrics})
	}
}

// TestJournalTornWriteRecovers (satellite: resume semantics): a torn
// final write — an entry truncated mid-byte by a crash, plus a stranded
// temp file — reads as a miss on resume, so exactly that point
// re-executes; nothing is lost and nothing wrong is served.
func TestJournalTornWriteRecovers(t *testing.T) {
	points := campaignPoints(t, false)
	want, err := sim.RunCampaign(points, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	run1 := newIndexCountingRunner()
	c1 := New(Config{Shards: 2, Transport: Local{Runner: run1}, JournalRoot: dir, Backoff: time.Millisecond})
	if _, err := c1.Run(context.Background(), points, sim.CampaignOpts{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	// Tear one committed entry the way a crash mid-write would have (the
	// rename is atomic, so a REAL torn write can only be a stranded temp
	// file — but belt and braces, damage the final file too).
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != len(points) {
		t.Fatalf("journal holds %d entries (err %v), want %d", len(entries), err, len(points))
	}
	b, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "put-stranded.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	run2 := newIndexCountingRunner()
	c2 := New(Config{Shards: 2, Transport: Local{Runner: run2}, JournalRoot: dir, Backoff: time.Millisecond})
	got, err := c2.Run(context.Background(), points, sim.CampaignOpts{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	metricsEqualJSON(t, want, got)
	if n := run2.total(); n != 1 {
		t.Errorf("resume after torn write executed %d points, want exactly 1 (the damaged entry)", n)
	}
}
