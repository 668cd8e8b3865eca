package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/pinumdb/pinum/internal/obs"
)

func TestMedianPercentileQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 100}, {0.1, 10}, {0, 10}, {1, 100}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// The inclusive method, as Python's statistics.quantiles(method="inclusive").
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 2, 4", q1, q3)
	}
	if got := (latencies{3000, 1000, 2000}).p(0.5, 1e3); got != 2 {
		t.Errorf("latencies p50 = %v µs, want 2", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping workers", []interval{{10, 60}, {20, 70}, {65, 80}}, 30},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to parent", []interval{{-50, 10}, {90, 200}}, 80},
		{"unordered", []interval{{60, 70}, {10, 20}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAttachDerivesSelfTimesPastKeptSpans pins that the spans no longer
// kept for the trace file still count: the fan-out's self time is the
// same for request 1 and for one past keepRequests.
func TestAttachDerivesSelfTimesPastKeptSpans(t *testing.T) {
	view := &obs.TraceView{Spans: []obs.Span{
		{Name: "decode", StartNs: 0, DurNs: 10_000},
		{Name: "fanout", StartNs: 10_000, DurNs: 50_000},
		{Name: "query:Q1", StartNs: 15_000, DurNs: 20_000},
		{Name: "query:Q2", StartNs: 25_000, DurNs: 20_000},
		{Name: "encode", StartNs: 60_000, DurNs: 15_000},
	}}
	tr := newTracer()
	for _, req := range []int{1, keepRequests + 1} {
		ss := tr.attach(req, "POST /whatif", tr.epoch, 100*time.Microsecond, view)
		// fanout 50 µs − union of its queries [15,45) = 20; root 100 −
		// (10 + 50 + 15) = 25; the queries sum to 40.
		if ss.fanoutSelf != 20 || ss.unaccount != 25 || ss.querySum != 40 || ss.top["fanout"] != 50 {
			t.Errorf("request %d: %+v, want fanoutSelf 20, unaccount 25, querySum 40, fanout 50", req, ss)
		}
	}
	if len(tr.spans) != 6 {
		t.Errorf("%d spans kept, want the 6 of request 1", len(tr.spans))
	}
}

func TestTwoSetVerdict(t *testing.T) {
	for _, c := range []struct {
		m1, m2, spread float64
		want           string
	}{
		{100, 105, 0.02, "PASS"},
		{100, 95, 0.02, "PASS"},
		{100, 140, 0.02, "UNRESOLVED"},
		{100, 60, 0.02, "UNRESOLVED"}, // better by more than the bound is disagreement too
		{100, 101, 0.30, "UNRESOLVED"},
		{0, 0, 0, "UNRESOLVED"},
		{100, math.NaN(), 0.02, "UNRESOLVED"},
		{100, 100, math.NaN(), "UNRESOLVED"},
	} {
		if got := twoSetVerdict(c.m1, c.m2, c.spread, 0.25); got != c.want {
			t.Errorf("twoSetVerdict(%v, %v, %v) = %s, want %s", c.m1, c.m2, c.spread, got, c.want)
		}
	}
}

// inputsFor generates the seeded inputs of the two workload families
// that have any: a body pool and the churn script.
func inputsFor(t *testing.T, seed int64) ([]whatIfInput, []scriptOp) {
	t.Helper()
	env, err := loadEnvironment(nil, paperQuerySeed)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(env)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := o.candidates()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	bodies, err := whatIfBodies(rng, 64, 1, 4, candidateSpecs(cands), adhocSpecs(rng, env, 32), 0.1, []string{"Q1", "Q2", "Q3", "Q4", "Q5", "Q6"})
	if err != nil {
		t.Fatal(err)
	}
	return bodies, churnScript(rng)
}

func TestSameSeedSameInputs(t *testing.T) {
	b1, s1 := inputsFor(t, 7)
	b2, s2 := inputsFor(t, 7)
	b3, s3 := inputsFor(t, 8)
	if len(b1) != len(b2) {
		t.Fatalf("pool sizes differ: %d, %d", len(b1), len(b2))
	}
	same := true
	for i := range b1 {
		if !bytes.Equal(b1[i].Body, b2[i].Body) {
			t.Fatalf("seed 7 body %d differs between two generations:\n%s\n%s", i, b1[i].Body, b2[i].Body)
		}
		same = same && bytes.Equal(b1[i].Body, b3[i].Body)
	}
	if same {
		t.Error("seeds 7 and 8 generated identical body pools")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("seed 7 generated two different scripts")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("seeds 7 and 8 generated identical scripts")
	}
}

func TestChurnScriptShape(t *testing.T) {
	script := churnScript(rand.New(rand.NewSource(1)))
	if len(script) != churnScripts*churnScriptOps {
		t.Fatalf("script has %d operations, want %d", len(script), churnScripts*churnScriptOps)
	}
	tenants := make(map[int]int)
	for i, op := range script {
		switch i % churnScriptOps {
		case churnForceAt:
			if op.Kind != opForceReload || op.Tenant != churnForceOwner {
				t.Fatalf("operation %d = %+v, want the forced reload", i, op)
			}
		case churnDriftAt:
			if op.Kind != opDriftReload || op.Tenant != churnDriftOwner {
				t.Fatalf("operation %d = %+v, want the drift reload", i, op)
			}
		case churnForceAt - 1, churnDriftAt - 1:
			if want := script[i+1].Tenant; op.Kind != opWhatIf || op.Tenant != want {
				t.Fatalf("operation %d = %+v, want a /whatif on tenant %d before its reload", i, op, want)
			}
		default:
			if op.Kind != opWhatIf || op.Tenant < 0 || op.Tenant >= churnTenants || op.Body < 0 || op.Body >= churnBodies {
				t.Fatalf("operation %d = %+v out of range", i, op)
			}
			tenants[op.Tenant]++
		}
	}
	// zipf(1.0): the first tenant is drawn most, the last least.
	if tenants[0] <= tenants[churnTenants-1] || len(tenants) != churnTenants {
		t.Errorf("tenant draws %v are not zipf-shaped over %d tenants", tenants, churnTenants)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesCatalogue holds BENCHMARK.json and the Go
// catalogue equal, and both inside the contract's limits.
func TestContractMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	want := catalogue()
	if !reflect.DeepEqual(onDisk, want) {
		expected, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Errorf("BENCHMARK.json differs from the catalogue; it should read:\n%s", expected)
	}

	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, d := range want.EndToEnd {
		name(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, d := range want.PerLayer {
		name(d.Name)
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	for _, d := range allMetrics() {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	if want.RunSeconds < 1 || want.RunSeconds > 60 || len(data) > 64<<10 {
		t.Errorf("run_seconds %d or file size %d outside the contract", want.RunSeconds, len(data))
	}
	for _, m := range shareMetric {
		if !seen[m] {
			t.Errorf("share metric %s is not in the catalogue", m)
		}
	}
}

// inTempDir runs the test from a scratch directory, so the benchmark's
// .bench_out lands there.
func inTempDir(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// driverRun runs one -workload invocation and returns its result line.
func driverRun(t *testing.T, args ...string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("exit %d, last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
	}
	if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("exit %d, result %+v\n%s", code, line, stdout.String())
	}
	return line
}

// TestEveryWorkloadSmoke runs one 0.2 s round of each workload: no
// operation fails and every end-to-end metric comes out positive.
func TestEveryWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's caches and goldens")
	}
	for _, w := range workloadDefs {
		b, err := newBench(w.Name, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := b.prepare(3); err != nil {
			t.Fatal(err)
		}
		res, err := b.round(200*time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if attempted, failed := res.totals(); attempted < 1 || failed != 0 {
			t.Errorf("%s: %d attempted, %d failed: %v", w.Name, attempted, failed, res.notes)
		}
		for _, d := range endToEnd {
			if res.values[d.Name] <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.Name, d.Name, res.values[d.Name])
			}
		}
	}
}

// TestDriverRunPrintsTheEndToEndMetrics makes one run as the driver
// does: the last line carries exactly the catalogue's end-to-end metrics
// with their units.
func TestDriverRunPrintsTheEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("five rounds of whatif-point")
	}
	inTempDir(t)
	line := driverRun(t, "--workload", "whatif-point", "--seed", "3", "--seconds", "0.5", "--trace", "0")
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics, want %d", len(line.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
			t.Errorf("metric %s = %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
		}
	}
}

// TestTracedPassEmitsEveryLayerMetric runs the traced pass of two
// workloads: the result line carries exactly the per-layer catalogue
// (the run itself rejects a value filed under an uncatalogued name),
// every metric is produced by at least one of them, and the spans were
// written.
func TestTracedPassEmitsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the probes")
	}
	inTempDir(t)
	produced := make(map[string]bool)
	for _, name := range []string{"tenant-churn", "design-batch"} {
		line := driverRun(t, "-workload", name, "-seed", "3", "-seconds", "0.8", "-trace", "1")
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", name, len(line.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			m, ok := line.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s missing or in %q, want %q", name, d.Name, m.Unit, d.Unit)
			}
			if m.Value != 0 {
				produced[d.Name] = true
			}
		}
		if line.Metrics["core.optimizer_calls_per_query"].Value != 2 {
			t.Errorf("%s: %v optimizer calls per query, want 2", name, line.Metrics["core.optimizer_calls_per_query"].Value)
		}
		if st, err := os.Stat(outDir + "/trace-" + name + ".jsonl"); err != nil || st.Size() == 0 {
			t.Errorf("%s: no trace file: %v", name, err)
		}
	}
	// Values only the what-if replay or a failing run produce.
	absent := map[string]bool{
		"fail_share": true, "serve.rejected": true, "serve.errors": true, "serve.reloads_skipped": true,
		"serve.handler_us": true, "serve.whatif_call_us": true, "serve.encode_us": true, "serve.ingress_us": true,
		"serve.trace_overhead_us": true, "inum.cost_us_per_request": true, "inum.cost_ns_per_plan": true,
	}
	for _, d := range perLayer {
		if !produced[d.Name] && !absent[d.Name] {
			t.Errorf("per-layer metric %s was 0 on both tenant-churn and design-batch", d.Name)
		}
	}
}
