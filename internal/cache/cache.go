// Package cache is the content-addressing layer of the assay service's
// result cache: a stable cryptographic key over the (program, seed,
// profile configuration) triple that fully determines an assay's report
// and event stream.
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
// The package deliberately knows nothing about jobs, stores or rings:
// it only derives keys. Each daemon indexes its own jobs by key, beside
// its job table (internal/service, internal/federation).
package cache

import (
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
