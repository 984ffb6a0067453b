package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ssam/internal/dataset"
	"ssam/internal/knn"
	"ssam/internal/server/wire"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsTiny runs every workload at tiny size, untraced and
// traced, and checks that the printed metrics are exactly the ones
// BENCHMARK.json names, with its units, and that every answer passed
// its correctness check.
func TestWorkloadsTiny(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: name, seed: 3, seconds: 0.4, trace: trace,
				spans: filepath.Join(t.TempDir(), "spans.jsonl"), tiny: true}
			if code := runOptions(o, &out, os.Stderr); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", name, trace, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want[trace]))
			}
			for m, unit := range want[trace] {
				got, ok := res.Metrics[m]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m, got, unit)
				}
			}
			if trace {
				if _, err := os.Stat(o.spans); err != nil {
					t.Errorf("%s: spans not written: %v", name, err)
				}
			}
		}
	}
}

// TestOracleMatchesEngine pins the benchmark's float64 oracle to the
// exact engine: same ids and bit-identical distances, in order.
func TestOracleMatchesEngine(t *testing.T) {
	ds := dataset.Generate(dataset.Spec{N: 3000, Dim: 32, NumQueries: 40, Clusters: 16, ClusterStd: 0.3, Seed: 7})
	got := oracleAll(ds.Data, 32, ds.Queries)
	want := knn.GroundTruth(ds.Data, 32, ds.Queries, k, 0)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("query %d: %d results, engine %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j].id != want[i][j].ID || got[i][j].dist != want[i][j].Dist {
				t.Fatalf("query %d rank %d: oracle %+v, engine %+v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestWrongAnswerCounts checks that a reordered or foreign answer is
// counted wrong on an exact workload.
func TestWrongAnswerCounts(t *testing.T) {
	b := &bench{spec: spec{n: 100, exact: true}}
	want := make([]neighbor, k)
	right := make([]wire.Neighbor, k)
	for i := range want {
		want[i] = neighbor{i, float64(i)}
		right[i] = wire.Neighbor{ID: i, Distance: float64(i)}
	}
	b.truth = [][]neighbor{want}
	swapped := append([]wire.Neighbor(nil), right...)
	swapped[0].ID, swapped[1].ID = swapped[1].ID, swapped[0].ID
	foreign := append([]wire.Neighbor(nil), right...)
	foreign[k-1].ID = 500
	st := &loadStats{}
	for _, got := range [][]wire.Neighbor{right, swapped, foreign} {
		b.checkStatic(st, 0, got)
	}
	if st.wrong != 2 {
		t.Fatalf("wrong = %d, want 2", st.wrong)
	}
}

// TestTailKeepsTenBeyond checks the tail percentile rule: p99 when at
// least ten samples lie beyond it, else the rank that leaves ten.
func TestTailKeepsTenBeyond(t *testing.T) {
	for _, n := range []int{50, 200, 1000, 5000} {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(n - i)
		}
		v, pct := tail(ds, 0.99)
		beyond := n - int(v)
		if beyond < 10 || (pct < 99 && beyond != 10) {
			t.Errorf("n=%d: p%.2f leaves %d beyond", n, pct, beyond)
		}
	}
}

// TestScheduleIsExact checks the open-loop schedule: a fixed seed
// gives the same operations, the count and write shares are exact,
// and arrivals are ordered within the run.
func TestScheduleIsExact(t *testing.T) {
	s, err := lookup("mixed-open", true)
	if err != nil {
		t.Fatal(err)
	}
	b := newBench(s, 5)
	d := 4 * time.Second
	b.resetModel()
	ops := b.schedule(rand.New(rand.NewSource(9)), d)
	b.resetModel()
	again := b.schedule(rand.New(rand.NewSource(9)), d)
	if len(ops) != 600 || len(again) != len(ops) {
		t.Fatalf("%d and %d ops, want 600", len(ops), len(again))
	}
	kinds := map[byte]int{}
	for i, o := range ops {
		kinds[o.kind]++
		if o.at != again[i].at || o.kind != again[i].kind || o.id != again[i].id {
			t.Fatalf("op %d differs between equal seeds", i)
		}
	}
	if kinds['u'] != 60 || kinds['d'] != 30 {
		t.Fatalf("kinds %v, want 60 upserts and 30 deletes", kinds)
	}
	if !sort.SliceIsSorted(ops, func(i, j int) bool { return ops[i].at < ops[j].at }) || ops[len(ops)-1].at > d {
		t.Fatalf("arrivals not ordered within %v", d)
	}
}
