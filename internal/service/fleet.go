package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"biochip/internal/chip"
)

// FleetProfileSpec is the wire form of one die profile in a fleet spec
// file. Cols/Rows size the electrode array (the rest of the die
// configuration follows chip.DefaultConfig); Parallelism is the
// intra-die worker cap (default 1 — shards, not dies, own the host);
// Tech optionally names a CMOS node that must be feasible for the
// array.
type FleetProfileSpec struct {
	Name        string `json:"name"`
	Shards      int    `json:"shards"`
	Cols        int    `json:"cols"`
	Rows        int    `json:"rows"`
	Parallelism int    `json:"parallelism,omitempty"`
	Tech        string `json:"tech,omitempty"`
	// NoCache opts the profile out of the result cache: jobs eligible
	// for it always execute (docs/caching.md).
	NoCache bool `json:"no_cache,omitempty"`
}

// FleetCacheSpec is the optional result-cache block of a fleet spec.
// The cache's index has no size to set (CacheConfig): an "entries"
// field is unknown, and fails to parse as any unknown field does.
type FleetCacheSpec struct {
	// Disable turns the result cache off for the whole fleet.
	Disable bool `json:"disable,omitempty"`
}

// FleetSpec is the JSON file cmd/assayd loads with -fleet: the die
// profiles of a heterogeneous pool plus the global queue bound. The
// committed example is docs/examples/fleet.json (golden-tested), and
// docs/cli.md documents the format.
type FleetSpec struct {
	// Queue bounds queued submissions fleet-wide; 0 means
	// DefaultQueueDepth.
	Queue int `json:"queue,omitempty"`
	// Cache configures the content-addressed result cache
	// (docs/caching.md). The zero value enables it with defaults, so
	// existing spec files are unaffected.
	Cache FleetCacheSpec `json:"cache,omitzero"`
	// Profiles is the fleet, one entry per die class.
	Profiles []FleetProfileSpec `json:"profiles"`
}

// ParseFleetSpec decodes and validates a fleet spec. Unknown fields are
// rejected so a typo in a spec file fails loudly instead of silently
// configuring a default.
func ParseFleetSpec(data []byte) (FleetSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var fs FleetSpec
	if err := dec.Decode(&fs); err != nil {
		return FleetSpec{}, fmt.Errorf("service: fleet spec: %w", err)
	}
	if len(fs.Profiles) == 0 {
		return FleetSpec{}, fmt.Errorf("service: fleet spec: no profiles")
	}
	if fs.Queue < 0 {
		return FleetSpec{}, fmt.Errorf("service: fleet spec: negative queue depth %d", fs.Queue)
	}
	seen := make(map[string]bool, len(fs.Profiles))
	for i, p := range fs.Profiles {
		switch {
		case p.Name == "":
			return FleetSpec{}, fmt.Errorf("service: fleet spec: profile %d: empty name", i)
		case seen[p.Name]:
			return FleetSpec{}, fmt.Errorf("service: fleet spec: duplicate profile %q", p.Name)
		case p.Shards < 1:
			return FleetSpec{}, fmt.Errorf("service: fleet spec: profile %q: %d shards out of range", p.Name, p.Shards)
		case p.Cols < 3 || p.Rows < 3:
			return FleetSpec{}, fmt.Errorf("service: fleet spec: profile %q: array %d×%d too small", p.Name, p.Cols, p.Rows)
		case p.Parallelism < 0:
			return FleetSpec{}, fmt.Errorf("service: fleet spec: profile %q: negative parallelism", p.Name)
		}
		seen[p.Name] = true
	}
	return fs, nil
}

// LoadFleetSpec reads and parses a fleet spec file.
func LoadFleetSpec(path string) (FleetSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return FleetSpec{}, err
	}
	return ParseFleetSpec(data)
}

// ServiceConfig expands the spec into a service Config: each profile
// becomes a Profile over chip.DefaultConfig with its array dimensions,
// row-parallel readout, and its intra-die parallelism (default 1).
// Technology-node feasibility is checked by New.
func (fs FleetSpec) ServiceConfig() Config {
	cfg := Config{
		QueueDepth: fs.Queue,
		Cache:      CacheConfig{Disable: fs.Cache.Disable},
	}
	for _, p := range fs.Profiles {
		die := chip.DefaultConfig()
		die.Array.Cols, die.Array.Rows = p.Cols, p.Rows
		die.SensorParallelism = p.Cols
		die.Parallelism = p.Parallelism
		if p.Parallelism == 0 {
			die.Parallelism = 1
		}
		cfg.Profiles = append(cfg.Profiles, Profile{
			Name:    p.Name,
			Shards:  p.Shards,
			Chip:    die,
			Tech:    p.Tech,
			NoCache: p.NoCache,
		})
	}
	return cfg
}
