package main

import (
	"encoding/json"
	"math/rand"
	"sort"
	"strings"

	"github.com/pinumdb/pinum/internal/catalog"
	"github.com/pinumdb/pinum/internal/serve"
)

// Everything in this file derives from the -seed flag alone: the same
// seed yields byte-identical bodies, tenant sequence and script.

// whatIfInput is one generated /whatif request and its wire body.
type whatIfInput struct {
	Req  serve.WhatIfRequest
	Body []byte
}

func specKey(s serve.IndexSpec) string { return s.Table + "(" + strings.Join(s.Columns, ",") + ")" }

// candidateSpecs turns advisor candidates into request specs.
func candidateSpecs(cands []*catalog.Index) []serve.IndexSpec {
	out := make([]serve.IndexSpec, len(cands))
	for i, ix := range cands {
		out[i] = serve.IndexSpec{Table: ix.Table, Columns: append([]string(nil), ix.Columns...)}
	}
	return out
}

// adhocSpecs draws n column permutations (two or three columns) over
// the tables the workload touches: indexes no advisor proposed, which a
// server has never seen when they first arrive.
func adhocSpecs(rng *rand.Rand, env *serve.Environment, n int) []serve.IndexSpec {
	seen := make(map[string]bool)
	var tables []string
	for _, q := range env.Queries {
		for _, r := range q.Rels {
			if !seen[r.Table.Name] {
				seen[r.Table.Name] = true
				tables = append(tables, r.Table.Name)
			}
		}
	}
	sort.Strings(tables)
	out := make([]serve.IndexSpec, 0, n)
	for len(out) < n {
		t := env.Catalog.Table(tables[rng.Intn(len(tables))])
		k := 2 + rng.Intn(2)
		if k > len(t.Columns) {
			k = len(t.Columns)
		}
		cols := make([]string, 0, k)
		for _, i := range rng.Perm(len(t.Columns))[:k] {
			cols = append(cols, t.Columns[i].Name)
		}
		out = append(out, serve.IndexSpec{Table: t.Name, Columns: cols})
	}
	return out
}

// whatIfBodies generates n requests of minIx..maxIx distinct specs,
// adhocShare of the specs drawn from adhoc and the rest from cands.
// When weightNames is set every fourth body carries a five-entry
// weights override.
func whatIfBodies(rng *rand.Rand, n, minIx, maxIx int, cands, adhoc []serve.IndexSpec, adhocShare float64, weightNames []string) ([]whatIfInput, error) {
	out := make([]whatIfInput, n)
	for b := range out {
		k := minIx + rng.Intn(maxIx-minIx+1)
		req := serve.WhatIfRequest{}
		used := make(map[string]bool, k)
		for len(req.Indexes) < k {
			pool := cands
			if len(adhoc) > 0 && rng.Float64() < adhocShare {
				pool = adhoc
			}
			s := pool[rng.Intn(len(pool))]
			if key := specKey(s); !used[key] {
				used[key] = true
				req.Indexes = append(req.Indexes, s)
			}
		}
		if weightNames != nil && b%4 == 3 {
			for _, i := range rng.Perm(len(weightNames))[:5] {
				req.Weights = append(req.Weights, serve.WeightOverride{Name: weightNames[i], Weight: float64(2 + rng.Intn(8))})
			}
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		out[b] = whatIfInput{Req: req, Body: body}
	}
	return out, nil
}

// distinctSpecs counts the distinct index specs a body pool carries.
func distinctSpecs(pools ...[]whatIfInput) int {
	seen := make(map[string]bool)
	for _, pool := range pools {
		for _, in := range pool {
			for _, s := range in.Req.Indexes {
				seen[specKey(s)] = true
			}
		}
	}
	return len(seen)
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1).
type zipf struct{ cum []float64 }

func newZipf(n int) zipf {
	cum := make([]float64, n)
	total := 0.0
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return zipf{cum}
}

func (z zipf) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(z.cum, rng.Float64())
}

// The tenant-churn script: churnScriptOps operations, fixed in shape.
// Thirty zipf-drawn /whatif, one /whatif on t0, a forced reload of t0,
// thirty more zipf-drawn /whatif, one /whatif on t1, a drift reload of
// t1. The /whatif before each reload makes its tenant resident, so a
// reload never doubles as an uncounted cold load and the incremental
// reload always has a previous set to reuse from.
const (
	churnTenants    = 6
	churnResident   = 3
	churnBodies     = 64
	churnScriptOps  = 64
	churnScripts    = 64
	churnForceAt    = 31
	churnDriftAt    = 63
	churnForceOwner = 0
	churnDriftOwner = 1
)

type opKind uint8

const (
	opWhatIf opKind = iota
	opForceReload
	opDriftReload
)

// scriptOp is one scripted operation; body indexes the tenant's pool.
type scriptOp struct {
	Kind   opKind
	Tenant int
	Body   int
}

// churnScript generates churnScripts consecutive scripts. The client
// cycles through them, so a measured window sees thousands of tenant
// draws and its cold-load share does not hinge on one short sequence.
func churnScript(rng *rand.Rand) []scriptOp {
	z := newZipf(churnTenants)
	ops := make([]scriptOp, 0, churnScripts*churnScriptOps)
	for s := 0; s < churnScripts; s++ {
		for i := 0; i < churnScriptOps; i++ {
			op := scriptOp{Kind: opWhatIf, Tenant: z.draw(rng), Body: rng.Intn(churnBodies)}
			switch i {
			case churnForceAt - 1:
				op.Tenant = churnForceOwner
			case churnForceAt:
				op = scriptOp{Kind: opForceReload, Tenant: churnForceOwner}
			case churnDriftAt - 1:
				op.Tenant = churnDriftOwner
			case churnDriftAt:
				op = scriptOp{Kind: opDriftReload, Tenant: churnDriftOwner}
			}
			ops = append(ops, op)
		}
	}
	return ops
}
