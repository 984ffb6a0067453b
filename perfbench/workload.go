package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"ssam/internal/client"
	"ssam/internal/dataset"
	"ssam/internal/server"
	"ssam/internal/server/wire"
)

const (
	regionName = "bench"
	k          = 10
	// clients is the closed-loop client count and the open loop's
	// in-flight cap; connections never exceed min(clients, NumCPU).
	clients = 2
)

// spec is one workload. The sizes are the full-size runs; tiny shrinks
// them for the self-test.
type spec struct {
	name    string
	n, dim  int
	queries int // distinct queries in the pool (each has an oracle answer)
	// clusters and std shape the Gaussian mixture. 64 clusters of
	// spread 0.3 stay apart; 256 of spread 1.2 overlap, so approximate
	// indexes miss neighbors, and the many clusters keep their search
	// cost from varying much between seeds.
	clusters int
	std      float64
	cfg      wire.RegionConfig
	// rate > 0 makes the load an open loop at rate operations/s, with
	// upsertFrac and deleteFrac of them writes; otherwise a closed
	// loop of the clients.
	rate                   float64
	upsertFrac, deleteFrac float64
	// exact requires every served answer to equal the oracle id for id.
	exact bool
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// segments splits the measured load of an untraced closed-loop run
	// into equal stretches, each after a set-up of its own (the last
	// segments of the setupReps); qps and read_p50_ms are the medians
	// over the stretches. On a shared host, throughput holds within a
	// few percent over one build but moves by up to a fifth between
	// builds seconds apart; the median over builds spread through the
	// run keeps any one of them from setting the result. 0 means one
	// segment.
	segments int
	// roofBytes sizes each buffer of the traced run's copy probe.
	roofBytes int
}

// fullRoof makes the two copy buffers together more than twice a
// 300 MiB last-level cache.
const fullRoof = 384 << 20

var specs = []spec{
	{
		name: "exact-closed", n: 20000, dim: 128, queries: 256, clusters: 64, std: 0.3,
		cfg:   wire.RegionConfig{Mode: "linear"},
		exact: true, setupReps: 3, segments: 3,
	},
	{
		name: "mixed-open", n: 5000, dim: 64, queries: 256, clusters: 64, std: 0.3,
		cfg:  wire.RegionConfig{Mode: "linear"},
		rate: 150, upsertFrac: 0.10, deleteFrac: 0.05,
		setupReps: 9,
	},
	{
		name: "graph-ann", n: 6000, dim: 128, queries: 512, clusters: 256, std: 1.2,
		cfg:       wire.RegionConfig{Mode: "graph", Index: wire.IndexParams{M: 16, EfConstruction: 100, EfSearch: 64, Seed: 1}},
		setupReps: 3, segments: 3,
	},
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

func lookup(name string, tiny bool) (spec, error) {
	for _, s := range specs {
		if s.name != name {
			continue
		}
		s.roofBytes = fullRoof
		if tiny {
			s.n, s.queries, s.setupReps, s.roofBytes = 600, 24, 2, 8<<20
			s.segments = min(s.segments, s.setupReps)
		}
		return s, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// bench is one workload's inputs plus the served system under test.
type bench struct {
	spec
	seed    int64
	data    []float32   // n rows, loaded at set-up
	extra   [][]float32 // rows the write stream upserts (mixed-open)
	queries [][]float32
	truth   [][]neighbor // oracle answer per query
	model   *model       // live rows under the write stream (mixed-open)

	srv  *server.Server
	hs   *http.Server
	base string
	tr   *http.Transport
	cl   *client.Client
	done chan struct{} // closed when hs.Serve returns
}

func (b *bench) row(i int) []float32 { return b.data[i*b.dim : (i+1)*b.dim] }

// newBench generates the seeded inputs and their oracle answers.
// Neither is part of set-up time.
func newBench(s spec, seed int64) *bench {
	extra := 0
	if s.rate > 0 {
		extra = int(s.rate*s.upsertFrac*60) + 1 // enough for a minute of upserts
	}
	ds := dataset.Generate(dataset.Spec{
		Name: s.name, N: s.n + extra, Dim: s.dim, NumQueries: s.queries, K: k,
		Clusters: s.clusters, ClusterStd: s.std, Seed: seed,
	})
	b := &bench{spec: s, seed: seed, data: ds.Data[:s.n*s.dim], queries: ds.Queries}
	for i := s.n; i < s.n+extra; i++ {
		b.extra = append(b.extra, ds.Data[i*s.dim:(i+1)*s.dim])
	}
	b.truth = oracleAll(b.data, s.dim, b.queries)
	return b
}

// start serves a fresh server on a loopback listener.
func (b *bench) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	b.srv = server.New(server.Options{})
	b.hs = &http.Server{Handler: b.srv}
	b.done = make(chan struct{})
	go func() {
		defer close(b.done)
		b.hs.Serve(ln)
	}()
	b.base = "http://" + ln.Addr().String()
	conns := min(clients, runtime.NumCPU())
	b.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	// No retries: a shed request is counted, not hidden.
	b.cl = client.New(b.base, client.WithHTTPClient(&http.Client{Transport: b.tr, Timeout: 2 * time.Minute}),
		client.WithRetries(0))
	return nil
}

// stop shuts the server down and waits for its goroutines.
func (b *bench) stop() {
	if b.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.hs.Shutdown(ctx)
	<-b.done
	b.srv.Close()
	b.tr.CloseIdleConnections()
}

// setupTimes is one set-up: create + /load + /build until the region
// serves.
type setupTimes struct{ load, build, total time.Duration }

// setup creates the region, loads the dataset as one JSON /load body
// and builds it. A previous region of the same name is freed first.
func (b *bench) setup(ctx context.Context) (setupTimes, error) {
	var st setupTimes
	err := b.cl.Free(ctx, regionName)
	var se *client.StatusError
	if err != nil && !(errors.As(err, &se) && se.Code == http.StatusNotFound) {
		return st, fmt.Errorf("free: %w", err)
	}
	rows := make([][]float32, b.n)
	for i := range rows {
		rows[i] = b.row(i)
	}
	t0 := time.Now()
	if _, err := b.cl.CreateRegion(ctx, regionName, b.dim, b.cfg); err != nil {
		return st, fmt.Errorf("create: %w", err)
	}
	if _, err := b.cl.Load(ctx, regionName, rows); err != nil {
		return st, fmt.Errorf("load: %w", err)
	}
	t1 := time.Now()
	info, err := b.cl.Build(ctx, regionName)
	if err != nil {
		return st, fmt.Errorf("build: %w", err)
	}
	t2 := time.Now()
	if !info.Built || info.Len != b.n {
		return st, fmt.Errorf("build: region reports built=%v len=%d, want %d rows", info.Built, info.Len, b.n)
	}
	return setupTimes{load: t1.Sub(t0), build: t2.Sub(t1), total: t2.Sub(t0)}, nil
}

// heapMiB is the live Go heap after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// neighbor is one oracle answer row.
type neighbor struct {
	id   int
	dist float64
}

// less is the (dist, id) total order every engine answers in.
func less(a, b neighbor) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.id < b.id)
}

// sqL2 is the float64 squared Euclidean distance, accumulated in
// dimension order.
func sqL2(a, b []float32) float64 {
	var acc float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		acc += d * d
	}
	return acc
}

// oracle is the exact brute-force top-k of q over rows; ids[i] names
// row i (nil means the row index).
func oracle(rows [][]float32, ids []int, q []float32) []neighbor {
	best := make([]neighbor, 0, k+1)
	for i, r := range rows {
		id := i
		if ids != nil {
			id = ids[i]
		}
		c := neighbor{id, sqL2(q, r)}
		if len(best) == k && !less(c, best[k-1]) {
			continue
		}
		j := sort.Search(len(best), func(j int) bool { return less(c, best[j]) })
		best = append(best, neighbor{})
		copy(best[j+1:], best[j:])
		best[j] = c
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// oracleAll answers every query against the flat dataset, split over
// the available CPUs.
func oracleAll(data []float32, dim int, queries [][]float32) [][]neighbor {
	rows := make([][]float32, len(data)/dim)
	for i := range rows {
		rows[i] = data[i*dim : (i+1)*dim]
	}
	out := make([][]neighbor, len(queries))
	workers := runtime.NumCPU()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				out[i] = oracle(rows, nil, queries[i])
			}
		}(w)
	}
	wg.Wait()
	return out
}

// sameIDs reports whether got equals want id for id.
func sameIDs(got []wire.Neighbor, want []neighbor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].id {
			return false
		}
	}
	return true
}

// hits counts the true top-k ids that got contains.
func hits(got []wire.Neighbor, want []neighbor) int {
	n := 0
	for _, w := range want {
		for _, g := range got {
			if g.ID == w.id {
				n++
				break
			}
		}
	}
	return n
}

// wellFormed is the shape check for reads taken while writes are in
// flight: k results in (dist, id) order, each id live at some point.
func wellFormed(got []wire.Neighbor, everLive func(int) bool) bool {
	if len(got) != k {
		return false
	}
	for i, g := range got {
		if !everLive(g.ID) {
			return false
		}
		if i > 0 && less(neighbor{g.ID, g.Distance}, neighbor{got[i-1].ID, got[i-1].Distance}) {
			return false
		}
	}
	return true
}
