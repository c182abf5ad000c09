// Package cache is the content-addressing layer of the assay service's
// result cache: a stable cryptographic key over the (program, seed,
// profile configuration) triple that fully determines an assay's report
// and event stream, plus a bounded LRU index over previously computed
// results.
//
// The determinism contract (docs/determinism.md) makes whole-assay
// memoization sound: a job is a pure function of its canonical program
// JSON, its request seed and the die configurations it may execute on,
// so two submissions with equal keys are guaranteed — not merely likely
// — to produce bit-identical reports and event streams. Key derivation
// is documented in docs/caching.md: every component is rendered as
// canonical-key-order JSON (struct-tag order, the doclint convention)
// and the concatenated material is hashed with SHA-256.
//
// The package deliberately knows nothing about jobs, stores or rings —
// it maps keys to small caller-owned values. internal/service owns the
// two-tier composition: an LRU from this package in front of the keyed
// finish index of internal/store.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"biochip/internal/assay"
	"biochip/internal/chip"
)

// Key is the content address of one assay execution: the SHA-256 of the
// canonical key material (see KeyOf). The zero Key is reserved as "not
// cacheable" by convention; a SHA-256 collision with it is not a
// practical concern.
type Key [sha256.Size]byte

// Zero reports whether the key is the reserved not-cacheable zero value.
func (k Key) Zero() bool { return k == Key{} }

// String returns the key in lowercase hex — the form persisted in
// durable finish records and shown in diagnostics.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ProfileMaterial is one eligible die profile's contribution to the key
// material: the profile name (it appears in event payloads, so renaming
// a profile legitimately changes the stream) and its canonical die
// configuration.
type ProfileMaterial struct {
	Name   string          `json:"name"`
	Config json.RawMessage `json:"config"`
}

// material is the canonical key material: hashing its canonical JSON
// yields the cache key.
type material struct {
	Program  json.RawMessage   `json:"program"`
	Seed     uint64            `json:"seed"`
	Profiles []ProfileMaterial `json:"profiles"`
}

// ConfigJSON renders a die configuration as canonical key material:
// canonical-key-order JSON with the two fields that never change a
// result zeroed first — Seed, because the request seed overrides it on
// every execution, and Parallelism, because results are bit-identical
// at any worker count (the determinism contract, enforced in CI).
func ConfigJSON(cfg chip.Config) ([]byte, error) {
	cfg.Seed = 0
	cfg.Parallelism = 0
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("cache: encoding config: %w", err)
	}
	return raw, nil
}

// KeyOf derives the content address of one submission: the canonical
// program encoding (assay.Program.CanonicalJSON), the request seed and
// the eligible profiles — names plus canonical configs, in fleet order.
// Submissions that may run on different profile sets get different keys
// by construction, so a cached result is only ever served where the
// scheduler could have produced it.
func KeyOf(pr assay.Program, seed uint64, profiles []ProfileMaterial) (Key, error) {
	prog, err := pr.CanonicalJSON()
	if err != nil {
		return Key{}, fmt.Errorf("cache: %w", err)
	}
	raw, err := json.Marshal(material{Program: prog, Seed: seed, Profiles: profiles})
	if err != nil {
		return Key{}, fmt.Errorf("cache: encoding key material: %w", err)
	}
	return sha256.Sum256(raw), nil
}

// Entry is one cached result reference: the ID of the job that computed
// the result plus the size of its report.
type Entry struct {
	// ID is the job whose terminal record holds the result.
	ID string
	// Bytes is the length of the job's report encoding. It is a figure
	// for stats only: eviction goes by entry count.
	Bytes int64
}

// LRU is the bounded in-memory tier of the result cache: a key → Entry
// map with least-recently-used eviction by entry count. It is NOT
// self-synchronizing — the owning service serializes every call under
// its own lock, which keeps lock ordering trivial (the LRU can never
// call back out while holding anything).
type LRU struct {
	capacity int
	bytes    int64
	order    *list.List // front = most recently used; values are *lruItem
	items    map[Key]*list.Element
}

// lruItem is one resident entry and its key (needed on eviction).
type lruItem struct {
	key   Key
	entry Entry
}

// DefaultLRUEntries bounds an LRU built with NewLRU(0).
const DefaultLRUEntries = 1024

// NewLRU builds an LRU holding at most capacity entries (0 or negative
// selects DefaultLRUEntries).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = DefaultLRUEntries
	}
	return &LRU{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[Key]*list.Element),
	}
}

// Capacity returns the entry bound.
func (l *LRU) Capacity() int { return l.capacity }

// Len returns the resident entry count.
func (l *LRU) Len() int { return len(l.items) }

// Bytes returns the summed report bytes of the resident entries.
func (l *LRU) Bytes() int64 { return l.bytes }

// Get returns the entry for key, promoting it to most recently used.
func (l *LRU) Get(key Key) (Entry, bool) {
	el, ok := l.items[key]
	if !ok {
		return Entry{}, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

// Add inserts (or refreshes) the entry for key as most recently used,
// evicting the least recently used entries past the capacity.
func (l *LRU) Add(key Key, entry Entry) {
	if el, ok := l.items[key]; ok {
		it := el.Value.(*lruItem)
		l.bytes += entry.Bytes - it.entry.Bytes
		it.entry = entry
		l.order.MoveToFront(el)
		return
	}
	l.items[key] = l.order.PushFront(&lruItem{key: key, entry: entry})
	l.bytes += entry.Bytes
	for len(l.items) > l.capacity {
		el := l.order.Back()
		it := el.Value.(*lruItem)
		l.order.Remove(el)
		delete(l.items, it.key)
		l.bytes -= it.entry.Bytes
	}
}

// Remove drops the entry for key, if resident.
func (l *LRU) Remove(key Key) {
	el, ok := l.items[key]
	if !ok {
		return
	}
	it := el.Value.(*lruItem)
	l.order.Remove(el)
	delete(l.items, key)
	l.bytes -= it.entry.Bytes
}
