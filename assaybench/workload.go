package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"biochip/internal/assay"
	"biochip/internal/chip"
)

// workload is one traffic mix. Every workload is a closed loop: each
// client keeps `window` jobs outstanding and submits the next only when
// it holds the report of its oldest one, as assayctl submit -wait,
// assayctl watch and sweep scripts do.
type workload struct {
	name string
	// cols is the die edge in electrodes (square dies).
	cols int
	// gateway runs a gateway over two single-shard workers instead of
	// one worker with the default shard count.
	gateway bool
	// window is the number of outstanding jobs per client.
	window int
	// dup is the share of submissions that repeat a pair from the
	// client's pool of pool recent (program, seed) pairs; the rest are
	// fresh pairs, which then join the pool.
	dup  float64
	pool int
	// program draws one program from the workload's family.
	program func(r *rand.Rand) string
}

// clients is the number of load-generator goroutines: one per core of
// the 2-core host the benchmark was sized on, each on one keep-alive
// connection.
const clients = 2

var workloads = []workload{
	{name: "gather-route", cols: 32, window: 1, program: gatherProgram},
	{name: "scan-stream", cols: 96, window: 1, program: scanProgram},
	{name: "cache-dup", cols: 96, window: 4, dup: 0.9, pool: 4, program: scanProgram},
	{name: "gateway-scan", cols: 96, gateway: true, window: 1, program: scanProgram},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// gatherProgram is a routed isolation run on a 32×32 die: about ten
// captured cells gathered into a packed block by the production
// planner. Routing planning is nearly all of its execution time.
func gatherProgram(r *rand.Rand) string {
	return fmt.Sprintf(`{"name":"gather-route","ops":[`+
		`{"op":"load","kind":"viable-cell","count":%d},{"op":"settle"},{"op":"capture"},`+
		`{"op":"gather","col":1,"row":1},{"op":"scan","averaging":%d},{"op":"release"}]}`,
		9+r.IntN(3), []int{8, 16}[r.IntN(2)])
}

// scanProgram is an unrouted detection run on a 96×96 die: about 200
// cells loaded, settled, captured, probed, scanned twice and released.
// It streams ~20 events carrying ~400 detection rows per job.
func scanProgram(r *rand.Rand) string {
	return fmt.Sprintf(`{"name":"scan-stream","ops":[`+
		`{"op":"load","kind":"viable-cell","count":%d},{"op":"settle"},{"op":"capture"},`+
		`{"op":"probe","frequency":%d},{"op":"scan","averaging":%d},{"op":"scan","averaging":%d},{"op":"release"}]}`,
		190+r.IntN(21), []int{5000, 10000, 20000}[r.IntN(3)], []int{4, 8}[r.IntN(2)], []int{16, 32}[r.IntN(2)])
}

// chipConfig is the die configuration assayd builds from -cols/-rows
// with its other flags at their defaults: row-parallel readout and
// serial per-die loops.
func chipConfig(cols int) chip.Config {
	cfg := chip.DefaultConfig()
	cfg.Array.Cols, cfg.Array.Rows = cols, cols
	cfg.SensorParallelism = cols
	cfg.Parallelism = 1
	return cfg
}

// pair is one distinct (program, seed) submission.
type pair struct {
	body    []byte // POST /v1/assays body
	seed    uint64
	program assay.Program
}

// generator derives one client's request sequence from the run seed.
// Each client has its own stream and its own duplicate pool, so the
// sequence a client sends does not depend on timing or on the other
// client.
type generator struct {
	w    workload
	r    *rand.Rand
	pool []int // indices into the client's pair table
	next int   // pool slot the next fresh pair replaces
}

// streamID separates the generator streams of different workloads and
// clients under one run seed.
func streamID(workload string, client int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return h.Sum64() + uint64(client)
}

func newGenerator(w workload, seed uint64, client int) *generator {
	return &generator{w: w, r: rand.New(rand.NewPCG(seed, streamID(w.name, client)))}
}

// draw returns the next submission: either a repeat of a pooled pair
// or a fresh pair, which the caller adds to its table and passes to
// remember.
func (g *generator) draw() (repeat int, fresh *pair, err error) {
	if len(g.pool) > 0 && g.r.Float64() < g.w.dup {
		return g.pool[g.r.IntN(len(g.pool))], nil, nil
	}
	seed := g.r.Uint64()
	prog := g.w.program(g.r)
	body := fmt.Appendf(nil, `{"seed":%d,"program":%s}`, seed, prog)
	var pr assay.Program
	if err := json.Unmarshal([]byte(prog), &pr); err != nil {
		return 0, nil, fmt.Errorf("generated program: %w", err)
	}
	return -1, &pair{body: body, seed: seed, program: pr}, nil
}

// remember puts a fresh pair's index into the duplicate pool.
func (g *generator) remember(idx int) {
	if g.w.pool == 0 {
		return
	}
	if len(g.pool) < g.w.pool {
		g.pool = append(g.pool, idx)
		return
	}
	g.pool[g.next] = idx
	g.next = (g.next + 1) % g.w.pool
}
