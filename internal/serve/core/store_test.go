package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"cbma/internal/obs"
	"cbma/internal/sim"
)

func testKey(n int64) Key {
	return Key{ScenarioHash: "deadbeef", Seed: n}
}

func testEntry(n int64) Entry {
	return Entry{Key: testKey(n), Metrics: sim.Metrics{NumTags: int(n), FramesSent: 100, FramesDelivered: 90, FER: 0.1}}
}

func TestMemoryStoreLRU(t *testing.T) {
	s := NewMemoryStore(2)
	s.Put(testKey(1), testEntry(1))
	s.Put(testKey(2), testEntry(2))
	if _, ok := s.Get(testKey(1)); !ok { // refresh 1 → 2 is now LRU
		t.Fatal("entry 1 missing before capacity reached")
	}
	s.Put(testKey(3), testEntry(3))
	if _, ok := s.Get(testKey(2)); ok {
		t.Error("entry 2 survived eviction, want LRU evicted")
	}
	if _, ok := s.Get(testKey(1)); !ok {
		t.Error("entry 1 evicted despite being recently used")
	}
	if _, ok := s.Get(testKey(3)); !ok {
		t.Error("entry 3 missing right after Put")
	}
	if got := s.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestMemoryStoreReplace(t *testing.T) {
	s := NewMemoryStore(2)
	s.Put(testKey(1), testEntry(1))
	e := testEntry(1)
	e.Metrics.FramesSent = 777
	s.Put(testKey(1), e)
	got, ok := s.Get(testKey(1))
	if !ok || got.Metrics.FramesSent != 777 {
		t.Errorf("replaced entry = %+v ok=%v, want FramesSent 777", got, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d after replace, want 1", s.Len())
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	s, err := NewDiskStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := testEntry(5)
	s.Put(testKey(5), want)
	got, ok := s.Get(testKey(5))
	if !ok {
		t.Fatal("entry missing after Put")
	}
	wb, _ := json.Marshal(want.Metrics)
	gb, _ := json.Marshal(got.Metrics)
	if string(wb) != string(gb) {
		t.Errorf("round trip changed metrics: %s != %s", gb, wb)
	}
	if _, ok := s.Get(testKey(6)); ok {
		t.Error("Get of absent key reported a hit")
	}
}

// corrupt flips bytes in every entry file under dir.
func corrupt(t *testing.T, dir string, mutate func([]byte) []byte) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no entry files to corrupt (err=%v)", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, mutate(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// The satellite contract: a corrupted on-disk entry is detected, evicted
// and recomputed — across every damage mode a crash or bit rot can leave.
func TestDiskStoreCorruptionEvicted(t *testing.T) {
	damages := map[string]func([]byte) []byte{
		"bit-flip":  func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"not-json":  func([]byte) []byte { return []byte("not json at all\n") },
		"renamed":   nil, // handled specially below
	}
	for name, mutate := range damages {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			o := obs.New(obs.Config{})
			s, err := NewDiskStore(dir, o)
			if err != nil {
				t.Fatal(err)
			}
			s.Put(testKey(9), testEntry(9))
			if name == "renamed" {
				// A valid entry parked under the wrong key must not alias.
				files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
				if err := os.Rename(files[0], s.path(testKey(10))); err != nil {
					t.Fatal(err)
				}
				if _, ok := s.Get(testKey(10)); ok {
					t.Fatal("renamed entry served under the wrong key")
				}
			} else {
				mutate := mutate
				corrupt(t, dir, mutate)
				if _, ok := s.Get(testKey(9)); ok {
					t.Fatal("corrupted entry served as a hit")
				}
			}
			// Detected damage must evict the file...
			if files, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(files) != 0 {
				t.Errorf("damaged entry file still present: %v", files)
			}
			snap := o.Registry().Snapshot()
			if got := snapshotCounter(snap, "serve.cache.disk_corrupt"); got != 1 {
				t.Errorf("serve.cache.disk_corrupt = %d, want 1", got)
			}
			// ...and a recomputation (a fresh Put) must restore service.
			s.Put(testKey(9), testEntry(9))
			if _, ok := s.Get(testKey(9)); !ok {
				t.Error("entry missing after recompute-and-Put")
			}
		})
	}
}

func TestTieredBackfill(t *testing.T) {
	mem := NewMemoryStore(4)
	disk, err := NewDiskStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(mem, disk)

	// Seed only the slow tier, as after a daemon restart.
	disk.Put(testKey(1), testEntry(1))
	if _, ok := tiered.Get(testKey(1)); !ok {
		t.Fatal("tiered Get missed an entry present on disk")
	}
	if _, ok := mem.Get(testKey(1)); !ok {
		t.Error("hit was not backfilled into the memory tier")
	}

	// Write-through: a Put lands in both tiers.
	tiered.Put(testKey(2), testEntry(2))
	if _, ok := mem.Get(testKey(2)); !ok {
		t.Error("Put missing from memory tier")
	}
	if _, ok := disk.Get(testKey(2)); !ok {
		t.Error("Put missing from disk tier")
	}
}

func TestKeyID(t *testing.T) {
	k := Key{ScenarioHash: "abc", Seed: -3}
	if got := k.ID(); got != "abc--3" {
		t.Errorf("ID = %q", got)
	}
}

// snapshotCounter digs a counter value out of a registry snapshot.
func snapshotCounter(snap obs.Snapshot, name string) int64 {
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
