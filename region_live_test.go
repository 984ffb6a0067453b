package ssam

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssam/internal/dataset"
	"ssam/internal/tier"
)

func liveBuild(t *testing.T, data []float32, dim int, cfg Config) *Region {
	t.Helper()
	r, err := New(dim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.LoadFloat32(data); err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return r
}

// liveAnswers returns r's single-query and batch answers for qs.
func liveAnswers(t *testing.T, r *Region, qs [][]float32, k int) (single, batch [][]Result) {
	t.Helper()
	for _, q := range qs {
		res, err := r.Search(q, k)
		if err != nil {
			t.Fatal(err)
		}
		single = append(single, res)
	}
	batch, err := r.SearchBatch(qs, k)
	if err != nil {
		t.Fatal(err)
	}
	return single, batch
}

// oneOf reports whether got equals one of the candidate answers.
func oneOf(got []Result, cands ...[]Result) bool {
	for _, c := range cands {
		if reflect.DeepEqual(got, c) {
			return true
		}
	}
	return false
}

// traffic runs round from several goroutines until halted. Each
// goroutine stops at its first error, which it reports with t.Error.
type traffic struct {
	stop     chan struct{}
	progress chan struct{} // one slot: rounds report without blocking
	failed   chan struct{}
	fail     sync.Once
	wg       sync.WaitGroup
}

func startTraffic(t *testing.T, goroutines int, round func() error) *traffic {
	tr := &traffic{stop: make(chan struct{}), progress: make(chan struct{}, 1), failed: make(chan struct{})}
	for g := 0; g < goroutines; g++ {
		tr.wg.Add(1)
		go func() {
			defer tr.wg.Done()
			for {
				select {
				case <-tr.stop:
					return
				default:
				}
				if err := round(); err != nil {
					t.Error(err)
					tr.fail.Do(func() { close(tr.failed) })
					return
				}
				select {
				case tr.progress <- struct{}{}:
				default:
				}
			}
		}()
	}
	return tr
}

// await returns once the traffic completes n more rounds, or has failed.
func (tr *traffic) await(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-tr.progress:
		case <-tr.failed:
			return
		case <-time.After(time.Minute):
			t.Fatal("search traffic made no progress")
		}
	}
}

func (tr *traffic) halt() {
	close(tr.stop)
	tr.wg.Wait()
}

// TestSetChecksUnderLiveTraffic retargets the accuracy knob while other
// goroutines search, on every mode and execution target that has one.
// Each answer must be bit-identical to a fresh region built at one of
// the knob values that was set; run with -race to check the retarget
// itself.
func TestSetChecksUnderLiveTraffic(t *testing.T) {
	ds := raceDataset(t)
	checks := func(cfg Config, n int) Config { cfg.Index.Checks = n; return cfg }
	probes := func(cfg Config, n int) Config { cfg.Index.Probes = n; return cfg }
	ef := func(cfg Config, n int) Config { cfg.Index.EfSearch = n; return cfg }
	rerank := func(cfg Config, n int) Config { cfg.Index.Rerank = n; return cfg }
	tree := IndexParams{Seed: 1, LeafSize: 8}
	pq := IndexParams{Seed: 1, M: 4}
	cases := []struct {
		name string
		cfg  Config
		// knob returns cfg with the knob SetChecks retargets built in at n.
		knob func(cfg Config, n int) Config
	}{
		{"host/kdtree", Config{Mode: KDTree, Index: tree}, checks},
		{"host/kmeans", Config{Mode: KMeans, Index: tree}, checks},
		{"host/mplsh", Config{Mode: MPLSH, Index: tree}, probes},
		{"host/graph", Config{Mode: Graph, Index: tree}, ef},
		{"host/quantized", Config{Mode: Quantized, Index: pq}, rerank},
		{"device/kdtree", Config{Mode: KDTree, Execution: Device, VectorLength: 4, Index: tree}, checks},
		{"device/kmeans", Config{Mode: KMeans, Execution: Device, VectorLength: 4, Index: tree}, checks},
		{"device/graph", Config{Mode: Graph, Execution: Device, VectorLength: 4, Index: tree}, ef},
		{"device/quantized", Config{Mode: Quantized, Execution: Device, VectorLength: 4, Index: pq}, rerank},
		{"storage/quantized", Config{Mode: Quantized, Index: pq, Storage: &Storage{BudgetBytes: 4096}}, rerank},
	}
	const k, lo, hi = 5, 2, 64
	qs := ds.Queries[:6]
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfgAt := func(n int) Config {
				cfg := tc.knob(tc.cfg, n)
				if cfg.Storage != nil {
					st := *cfg.Storage
					st.Path = filepath.Join(t.TempDir(), "region.tier")
					cfg.Storage = &st
				}
				return cfg
			}
			var want [2][2][][]Result // [knob lo|hi][single|batch]
			for i, n := range []int{lo, hi} {
				ref := liveBuild(t, ds.Data, ds.Dim(), cfgAt(n))
				want[i][0], want[i][1] = liveAnswers(t, ref, qs, k)
				ref.Free()
			}
			r := liveBuild(t, ds.Data, ds.Dim(), cfgAt(lo))
			defer r.Free()

			tr := startTraffic(t, 2, func() error {
				for i, q := range qs {
					res, err := r.Search(q, k)
					if err != nil {
						return err
					}
					if !oneOf(res, want[0][0][i], want[1][0][i]) {
						return fmt.Errorf("Search(q%d) = %v, matches neither knob", i, res)
					}
				}
				out, err := r.SearchBatch(qs, k)
				if err != nil {
					return err
				}
				for i, res := range out {
					if !oneOf(res, want[0][1][i], want[1][1][i]) {
						return fmt.Errorf("SearchBatch q%d = %v, matches neither knob", i, res)
					}
				}
				return nil
			})
			defer tr.halt()
			for i := 0; i < 16; i++ {
				n := hi
				if i%2 == 1 {
					n = lo
				}
				if err := r.SetChecks(n); err != nil {
					t.Fatal(err)
				}
				tr.await(t, 1)
			}
		})
	}
}

// TestReloadRebuildFreeUnderTraffic reloads a region with a second
// dataset, rebuilds it and finally frees it while searches are in
// flight. Every call must answer exactly as a region over one of the
// two datasets would, or fail with a typed lifecycle error — never a
// mix of the two, never a race, never a panic.
func TestReloadRebuildFreeUnderTraffic(t *testing.T) {
	spec := dataset.Spec{Name: "reload", N: 300, Dim: 16, NumQueries: 6, K: 5, Clusters: 6, ClusterStd: 0.3, Seed: 11}
	a := dataset.Generate(spec)
	spec.N, spec.Seed = 240, 12
	b := dataset.Generate(spec)
	qs := a.Queries
	cases := []struct {
		name string
		cfg  Config
	}{
		{"linear", Config{}},
		{"graph", Config{Mode: Graph, Index: IndexParams{Seed: 1}}},
		{"quantized", Config{Mode: Quantized, Index: IndexParams{Seed: 1, M: 4, Rerank: 20}}},
		{"storage/linear", Config{Vaults: 4, Storage: &Storage{BudgetBytes: 4096}}},
	}
	const k = 5
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			if cfg.Storage != nil {
				st := *cfg.Storage
				st.Path = filepath.Join(t.TempDir(), "region.tier")
				cfg.Storage = &st
			}
			// Tiered scans are bit-identical to in-RAM ones, so the
			// storage-backed case is checked against in-RAM references.
			refCfg := cfg
			refCfg.Storage = nil
			var want [2][2][][]Result // [dataset A|B][single|batch]
			for i, data := range [][]float32{a.Data, b.Data} {
				ref := liveBuild(t, data, spec.Dim, refCfg)
				want[i][0], want[i][1] = liveAnswers(t, ref, qs, k)
				ref.Free()
			}

			r := liveBuild(t, a.Data, spec.Dim, cfg)
			var freedSeen atomic.Bool
			// lifecycle reports whether err is one of the typed errors a
			// query racing a reload, rebuild or free may return.
			lifecycle := func(err error) bool {
				if errors.Is(err, ErrFreed) {
					freedSeen.Store(true)
					return true
				}
				return errors.Is(err, tier.ErrClosed) || strings.Contains(err.Error(), "before BuildIndex")
			}
			tr := startTraffic(t, 2, func() error {
				for i, q := range qs {
					res, err := r.Search(q, k)
					if err != nil && !lifecycle(err) {
						return fmt.Errorf("Search: unexpected error %w", err)
					}
					if err == nil && !oneOf(res, want[0][0][i], want[1][0][i]) {
						return fmt.Errorf("Search(q%d) = %v, matches neither dataset", i, res)
					}
				}
				out, err := r.SearchBatchSpan(qs, k, nil)
				if err != nil && !lifecycle(err) {
					return fmt.Errorf("SearchBatchSpan: unexpected error %w", err)
				}
				for i, res := range out {
					if res != nil && !oneOf(res, want[0][1][i], want[1][1][i]) {
						return fmt.Errorf("SearchBatchSpan q%d = %v, matches neither dataset", i, res)
					}
				}
				return nil
			})
			defer tr.halt()
			tr.await(t, 2)
			if err := r.LoadFloat32(b.Data); err != nil {
				t.Fatal(err)
			}
			if err := r.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			tr.await(t, 2)
			r.Free()
			// Of the next four rounds reported, at most one was reported
			// before Free and two were in flight during it, so at least
			// one started after it.
			tr.await(t, 4)
			if !t.Failed() && !freedSeen.Load() {
				t.Fatal("no search observed ErrFreed after Free")
			}
		})
	}
}
