package core

import (
	"container/list"
	"fmt"
	"sync"

	"cbma/internal/sim"
)

// Key identifies one cached campaign-point result. ScenarioHash is
// Scenario.Hash() — it already covers the scenario's seed, but Seed is
// carried explicitly so operators can shard or expire cache contents by
// seed without parsing scenarios back out of digests. No campaign option
// enters the key: worker budgets, labels and the campaign a point came
// from are all result-neutral, which is what lets the result cache and
// the shard journal share one store format.
type Key struct {
	ScenarioHash string `json:"scenario_hash"`
	Seed         int64  `json:"seed"`
}

// ID renders the key as a single filename-safe token — the content address
// of the on-disk backend.
func (k Key) ID() string {
	return fmt.Sprintf("%s-%d", k.ScenarioHash, k.Seed)
}

// Entry is one stored result.
type Entry struct {
	Key     Key         `json:"key"`
	Metrics sim.Metrics `json:"metrics"`
}

// Store is a result cache keyed by Key. A store is an optimization, never
// an authority: Get reporting a miss (for any reason, including a detected
// corruption) simply costs a recomputation, so implementations surface no
// errors — a broken backend degrades to a smaller cache, not a broken
// service. Implementations must be safe for concurrent use.
type Store interface {
	// Get returns the entry stored under k, if any.
	Get(k Key) (Entry, bool)
	// Put stores e under k, replacing any previous entry.
	Put(k Key, e Entry)
}

// MemoryStore is an in-memory LRU Store: Put beyond the capacity evicts
// the least-recently-used entry (Get refreshes recency).
type MemoryStore struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *memEntry
	items map[string]*list.Element
}

type memEntry struct {
	id string
	e  Entry
}

// DefaultMemoryEntries bounds MemoryStore when NewMemoryStore is given a
// non-positive capacity. Metrics are small (a few hundred bytes), so the
// default is sized for hit rate, not memory pressure.
const DefaultMemoryEntries = 4096

// NewMemoryStore returns an LRU store holding at most capacity entries.
func NewMemoryStore(capacity int) *MemoryStore {
	if capacity <= 0 {
		capacity = DefaultMemoryEntries
	}
	return &MemoryStore{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get implements Store.
func (s *MemoryStore) Get(k Key) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[k.ID()]
	if !ok {
		return Entry{}, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*memEntry).e, true
}

// Put implements Store.
func (s *MemoryStore) Put(k Key, e Entry) {
	id := k.ID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[id]; ok {
		el.Value.(*memEntry).e = e
		s.order.MoveToFront(el)
		return
	}
	s.items[id] = s.order.PushFront(&memEntry{id: id, e: e})
	for s.order.Len() > s.cap {
		last := s.order.Back()
		s.order.Remove(last)
		delete(s.items, last.Value.(*memEntry).id)
	}
}

// Len reports the number of resident entries.
func (s *MemoryStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Tiered composes stores fastest-first: Get probes in order and backfills
// every faster tier on a hit; Put writes through to all tiers. The daemon
// runs a MemoryStore in front of a DiskStore so hot keys never touch the
// filesystem while the full result set survives restarts.
type Tiered struct {
	tiers []Store
}

// NewTiered builds a tiered store; nil tiers are dropped.
func NewTiered(tiers ...Store) *Tiered {
	t := &Tiered{}
	for _, s := range tiers {
		if s != nil {
			t.tiers = append(t.tiers, s)
		}
	}
	return t
}

// Get implements Store.
func (t *Tiered) Get(k Key) (Entry, bool) {
	for i, s := range t.tiers {
		if e, ok := s.Get(k); ok {
			for _, faster := range t.tiers[:i] {
				faster.Put(k, e)
			}
			return e, true
		}
	}
	return Entry{}, false
}

// Put implements Store.
func (t *Tiered) Put(k Key, e Entry) {
	for _, s := range t.tiers {
		s.Put(k, e)
	}
}
