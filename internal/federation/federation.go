// Package federation turns a set of single-box assay daemons into one
// horizontally scaled service: a *gateway* assayd (assayd -gateway
// -members members.json) fronts N *worker* assayds, places each
// submission on the least-backlogged member whose die profiles can run
// it, forwards it over HTTP with the original seed, and transparently
// proxies status, listing, stats and SSE event streams back to clients
// (docs/federation.md).
//
// The determinism contract is what makes this a pure throughput
// multiplier: a job's report and event stream are a function of
// (program, seed, profile config) only, so *which* member executes a
// job never changes a bit of its result — placement is free to chase
// backlog. The gateway keeps per-member, per-compatibility-class
// backlog views (polled from each member's /v1/stats and refreshed
// from the backlog block piggybacked on 429 responses), scores
// candidates by the backlog their eligible classes would queue behind,
// and forwards to the cheapest. Job→member bindings are durably logged
// through internal/store (RouteRecord) before the submission is acked,
// and a finished routed job's record and stream (FinishRecord) once
// its relay ends it, so a restarted gateway serves every finished job
// from its own log and re-resolves only the unfinished ones against
// the member that owns them.
//
// The gateway composes with the result cache (docs/caching.md): it
// content-addresses each submission against the fleet-wide eligible
// profile set and answers duplicates from its own index of routed
// root jobs without forwarding; misses are forwarded and land in the
// member's own cache too. Unlike a single daemon, a gateway cache hit
// returns the *root* job's ID (202-with-existing-id, as coalescing
// does) instead of minting an alias job.
package federation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"biochip/internal/service"
)

// MemberSpec is one worker daemon in a members spec file: a unique
// name (it appears in route records, listings and stats), the base URL
// of its HTTP API, and the die profiles it serves — declared here so
// the gateway can place without a round trip, in the same form as a
// fleet spec (docs/cli.md).
type MemberSpec struct {
	Name string `json:"name"`
	// Addr is the member's base URL ("http://host:port"), no trailing
	// slash.
	Addr string `json:"addr"`
	// Profiles declares the member's die profiles, exactly as the
	// member's own -fleet spec (or its -cols/-rows/-shards flags)
	// configures them. Placement and the gateway's cache keys derive
	// from these, so they must match the member's actual fleet.
	Profiles []service.FleetProfileSpec `json:"profiles"`
}

// MembersSpec is the JSON file cmd/assayd loads with -members: the
// worker fleet behind a gateway plus the gateway's own cache block.
// The committed example is docs/examples/members.json (golden-tested).
type MembersSpec struct {
	// Cache configures the gateway's result cache; the zero value
	// enables it.
	Cache service.FleetCacheSpec `json:"cache,omitzero"`
	// Members is the worker fleet, one entry per daemon.
	Members []MemberSpec `json:"members"`
}

// ParseMembersSpec decodes and validates a members spec. Unknown
// fields are rejected so a typo fails loudly instead of silently
// configuring a default.
func ParseMembersSpec(data []byte) (MembersSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var ms MembersSpec
	if err := dec.Decode(&ms); err != nil {
		return MembersSpec{}, fmt.Errorf("federation: members spec: %w", err)
	}
	if len(ms.Members) == 0 {
		return MembersSpec{}, fmt.Errorf("federation: members spec: no members")
	}
	seen := make(map[string]bool, len(ms.Members))
	for i, m := range ms.Members {
		switch {
		case m.Name == "":
			return MembersSpec{}, fmt.Errorf("federation: members spec: member %d: empty name", i)
		case seen[m.Name]:
			return MembersSpec{}, fmt.Errorf("federation: members spec: duplicate member %q", m.Name)
		case m.Addr == "":
			return MembersSpec{}, fmt.Errorf("federation: members spec: member %q: empty addr", m.Name)
		}
		seen[m.Name] = true
		// Reuse the fleet-spec validation for the profile block, so a
		// members file rejects exactly what a fleet file would.
		if _, err := service.ParseFleetSpec(mustFleetJSON(m)); err != nil {
			return MembersSpec{}, fmt.Errorf("federation: members spec: member %q: %w", m.Name, err)
		}
	}
	return ms, nil
}

// FleetSpecOf reframes a member's profile declaration as the fleet
// spec the member itself runs, so profile expansion (chip defaults,
// sensor parallelism) is shared with the single-daemon path.
func FleetSpecOf(m MemberSpec) service.FleetSpec {
	return service.FleetSpec{Profiles: m.Profiles}
}

// mustFleetJSON re-encodes a member's profile block as a fleet spec
// document for validation. The input already decoded, so encoding
// cannot fail.
func mustFleetJSON(m MemberSpec) []byte {
	raw, err := json.Marshal(FleetSpecOf(m))
	if err != nil {
		panic(err)
	}
	return raw
}

// LoadMembersSpec reads and parses a members spec file.
func LoadMembersSpec(path string) (MembersSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return MembersSpec{}, err
	}
	return ParseMembersSpec(data)
}
