package core

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"testing"
)

// FuzzDiskStoreEntry writes arbitrary bytes as the entry file for a fixed
// key and reads it back. DiskStore entries are the only durable state the
// result cache and the shard journal trust, so Get must never panic, must
// report a hit only for an entry carrying exactly the requested key, and
// must delete any file it rejects so the key is recomputed cleanly.
func FuzzDiskStoreEntry(f *testing.F) {
	k := testKey(1)
	valid := entryBytes(f, k, testEntry(1))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(entryBytes(f, testKey(2), testEntry(2))) // well-formed, wrong key
	f.Add(bytes.Replace(valid, []byte(`"FramesSent":100`), []byte(`"FramesSent":101`), 1))
	f.Add([]byte{})
	f.Add([]byte(`{"sum":"","payload":null}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := NewDiskStore(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.path(k), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e, ok := s.Get(k)
		_, statErr := os.Stat(s.path(k))
		switch {
		case ok && e.Key != k:
			t.Fatalf("hit with key %+v, want %+v", e.Key, k)
		case ok && statErr != nil:
			t.Fatalf("accepted entry vanished: %v", statErr)
		case !ok && !errors.Is(statErr, fs.ErrNotExist):
			t.Fatalf("rejected entry left on disk (stat err %v)", statErr)
		}
	})
}

// entryBytes returns the exact file a DiskStore writes for (k, e).
func entryBytes(f *testing.F, k Key, e Entry) []byte {
	f.Helper()
	s, err := NewDiskStore(f.TempDir(), nil)
	if err != nil {
		f.Fatal(err)
	}
	s.Put(k, e)
	b, err := os.ReadFile(s.path(k))
	if err != nil {
		f.Fatal(err)
	}
	return b
}
