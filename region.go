package ssam

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ssam/internal/graph"
	"ssam/internal/knn"
	"ssam/internal/obs"
	"ssam/internal/ssamdev"
	"ssam/internal/tier"
	"ssam/internal/vec"
)

// ErrFreed is returned by operations on a freed region.
var ErrFreed = errors.New("ssam: region has been freed")

// BatchError reports a SearchBatch failure at a specific query. The
// batch's queries before Index completed normally and their results
// are returned alongside the error; queries from Index on were not
// answered.
type BatchError struct {
	Index int // offset of the failing query within the batch
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("ssam: batch query %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// Region is an SSAM-enabled memory region (the nbuf of Fig. 4).
//
// Concurrency: Search, SearchStats, SearchBinary and SearchBatch (and
// their Span forms) are safe from many goroutines, and stay safe while
// another goroutine calls SetChecks, LoadFloat32/LoadBinary, BuildIndex
// or Free. Each query loads the region's published engine once and runs
// to the end against it, so it answers from the dataset and knob value
// of one moment: the engine it started on, or — if that engine was
// retired underneath it — a typed error (ErrFreed, the "before
// BuildIndex" error after a reload, tier.ErrClosed for a storage-backed
// scan). Upsert, Delete and CompactNow are safe alongside searches too.
// Loading, building and freeing are meant for one caller at a time:
// they serialize on an internal lock, but interleaving them from several
// goroutines leaves which dataset ends up built to chance. The staged
// WriteQuery/Exec/ReadResult sequence keeps per-region query state and
// assumes one caller. Device execution serializes queries on the
// simulated module internally.
type Region struct {
	cfg  Config
	dims int

	// cur is the published serving state. Every Search* call loads it
	// once; LoadFloat32/LoadBinary, BuildIndex, a first write's
	// migration and Free each build the next state completely and then
	// swap it in.
	cur atomic.Pointer[state]

	// mu serializes the writers of cur and guards the fields below it.
	mu        sync.Mutex
	data      []float32    // float datasets (released once storage-backed)
	codes     []vec.Binary // Hamming datasets
	store     *tier.Store  // last storage-backed build's store, owned by its engine (fault-injection seam)
	onCompact func(CompactResult)

	// batchFault, when non-nil, runs before each device-mode batch
	// query (test seam for mid-batch failure injection).
	batchFault func(i int) error

	// Staged Fig. 4 query state (one caller).
	query    []float32
	queryBin vec.Binary
	lastRes  []Result
}

// state is one published generation of a region's serving state.
type state struct {
	eng   engine // nil until BuildIndex, and again after a reload
	rows  int    // rows loaded (0 before the first load)
	freed bool
}

// publish swaps in the next serving state and releases the engine it
// retires. Queries already running on that engine finish on it, or fail
// with tier.ErrClosed if it owned a store. Called with r.mu held.
func (r *Region) publish(next *state) {
	if prev := r.cur.Swap(next); prev.eng != nil && prev.eng != next.eng {
		prev.eng.close()
	}
}

// New allocates an SSAM-enabled region for vectors of the given
// dimensionality (nmalloc + nmode).
func New(dims int, cfg Config) (*Region, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("ssam: dims must be positive, got %d", dims)
	}
	if !cfg.Metric.Valid() {
		return nil, fmt.Errorf("ssam: metric %d out of range [%v..%v]", int(cfg.Metric), Euclidean, Hamming)
	}
	if !cfg.Mode.Valid() {
		return nil, fmt.Errorf("ssam: mode %d out of range [%v..%v]", int(cfg.Mode), Linear, Quantized)
	}
	if !cfg.Execution.Valid() {
		return nil, fmt.Errorf("ssam: execution %d not in {%v, %v}", int(cfg.Execution), Host, Device)
	}
	if cfg.VectorLength == 0 {
		cfg.VectorLength = 8
	}
	switch cfg.VectorLength {
	case 2, 4, 8, 16:
	default:
		return nil, fmt.Errorf("ssam: vector length %d not in {2,4,8,16}", cfg.VectorLength)
	}
	if cfg.Vaults < 0 {
		return nil, fmt.Errorf("ssam: vaults must be non-negative, got %d", cfg.Vaults)
	}
	if cfg.Metric == Hamming && cfg.Mode != Linear {
		return nil, fmt.Errorf("ssam: Hamming regions support Linear mode only")
	}
	// Quantized joins Linear in supporting every float metric (ADC
	// tables are additive under Euclidean and Manhattan, and cosine is
	// served by normalize-at-encode); the tree, LSH and graph indexes
	// remain Euclidean-only.
	if cfg.Execution == Device && cfg.Mode != Linear && cfg.Mode != Quantized && cfg.Metric != Euclidean {
		return nil, fmt.Errorf("ssam: device %v indexing requires the Euclidean metric", cfg.Mode)
	}
	if cfg.Mode != Linear && cfg.Mode != Quantized && cfg.Metric != Euclidean {
		return nil, fmt.Errorf("ssam: %v indexing requires the Euclidean metric", cfg.Mode)
	}
	if cfg.Index.Rerank < 0 {
		return nil, fmt.Errorf("ssam: rerank must be non-negative, got %d", cfg.Index.Rerank)
	}
	if cfg.Storage != nil {
		if cfg.Mode != Linear && cfg.Mode != Quantized {
			return nil, fmt.Errorf("ssam: storage-backed regions support Linear and Quantized modes, not %v", cfg.Mode)
		}
		if cfg.Metric == Hamming {
			return nil, errors.New("ssam: storage-backed regions do not support the Hamming metric")
		}
		if cfg.Storage.BudgetBytes < 0 {
			return nil, fmt.Errorf("ssam: storage budget must be non-negative, got %d", cfg.Storage.BudgetBytes)
		}
		if cfg.Storage.Path == "" && cfg.Execution == Host {
			return nil, errors.New("ssam: storage path required for Host execution")
		}
	}
	r := &Region{cfg: cfg, dims: dims}
	r.cur.Store(&state{})
	return r, nil
}

// Dims returns the region's vector dimensionality (bits for Hamming).
func (r *Region) Dims() int { return r.dims }

// Len returns the number of loaded vectors — live rows once the region
// has migrated to the mutable store.
func (r *Region) Len() int {
	st := r.cur.Load()
	if m, ok := st.eng.(mutableEngine); ok {
		return m.len()
	}
	return st.rows
}

// LoadFloat32 copies a flattened row-major dataset into the region
// (nmemcpy). Not valid for Hamming regions.
func (r *Region) LoadFloat32(data []float32) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur.Load().freed {
		return ErrFreed
	}
	if r.cfg.Metric == Hamming {
		return errors.New("ssam: LoadFloat32 on a Hamming region; use LoadBinary")
	}
	if len(data) == 0 || len(data)%r.dims != 0 {
		return fmt.Errorf("ssam: data length %d not a positive multiple of dims %d", len(data), r.dims)
	}
	r.data = append([]float32(nil), data...)
	// A reload replaces the logical dataset wholesale: the built engine,
	// a mutable store included, is stale, so retire it (mutation history
	// restarts at seq 0 after the next write).
	r.publish(&state{rows: len(data) / r.dims})
	return nil
}

// LoadBinary copies bit-packed codes into a Hamming region.
func (r *Region) LoadBinary(codes []BinaryCode) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur.Load().freed {
		return ErrFreed
	}
	if r.cfg.Metric != Hamming {
		return errors.New("ssam: LoadBinary on a non-Hamming region")
	}
	if len(codes) == 0 {
		return errors.New("ssam: empty code set")
	}
	for _, c := range codes {
		if c.Dim != r.dims {
			return fmt.Errorf("ssam: code width %d, want %d", c.Dim, r.dims)
		}
	}
	r.codes = append([]BinaryCode(nil), codes...)
	r.publish(&state{rows: len(codes)}) // see LoadFloat32
	return nil
}

// NewBinaryCode returns an empty code of the region's width, for
// assembling Hamming queries.
func NewBinaryCode(bits int) BinaryCode { return vec.NewBinary(bits) }

// BuildIndex constructs the region's search structures
// (nbuild_index). For Device execution it lays the dataset out across
// the simulated module's vaults and assembles the kernels. The new
// engine is built completely before it replaces the old one, so
// concurrent searches see either engine, never a partial one.
func (r *Region) BuildIndex() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cur.Load()
	if cur.freed {
		return ErrFreed
	}
	if cur.rows == 0 {
		return errors.New("ssam: BuildIndex before load")
	}
	if _, ok := cur.eng.(mutableEngine); ok {
		// The region has taken writes: the mutable store is the dataset
		// now, and keeps serving.
		return nil
	}
	e, err := r.build(cur.eng)
	if err != nil {
		return err
	}
	r.publish(&state{eng: e, rows: cur.rows})
	return nil
}

// SetChecks adjusts the accuracy/throughput knob of a built index
// without rebuilding: Checks for tree indexes, Probes for MPLSH, the
// efSearch beam width for Graph regions, and the exact re-rank depth
// for Quantized regions (all on both execution targets). Safe under
// live traffic: each query uses the value current when it started.
func (r *Region) SetChecks(n int) error {
	st := r.cur.Load()
	if st.freed {
		return ErrFreed
	}
	if n <= 0 {
		return fmt.Errorf("ssam: checks must be positive")
	}
	if st.eng == nil {
		return errors.New("ssam: SetChecks on a non-indexed region")
	}
	return st.eng.setKnob(n)
}

// WriteQuery stages a float query (nwrite_query).
func (r *Region) WriteQuery(q []float32) error {
	if r.cur.Load().freed {
		return ErrFreed
	}
	if r.cfg.Metric == Hamming {
		return errors.New("ssam: float query on a Hamming region")
	}
	if len(q) != r.dims {
		return fmt.Errorf("ssam: query dim %d, want %d", len(q), r.dims)
	}
	r.query = append(r.query[:0], q...)
	return nil
}

// WriteQueryBinary stages a Hamming query.
func (r *Region) WriteQueryBinary(q BinaryCode) error {
	if r.cur.Load().freed {
		return ErrFreed
	}
	if r.cfg.Metric != Hamming {
		return errors.New("ssam: binary query on a non-Hamming region")
	}
	if q.Dim != r.dims {
		return fmt.Errorf("ssam: query width %d, want %d", q.Dim, r.dims)
	}
	r.queryBin = q
	return nil
}

// Exec runs the staged query for the k nearest neighbors (nexec).
func (r *Region) Exec(k int) error {
	st := r.cur.Load()
	if st.freed {
		return ErrFreed
	}
	if st.eng == nil {
		return errors.New("ssam: Exec before BuildIndex")
	}
	if k <= 0 {
		return fmt.Errorf("ssam: k must be positive")
	}
	var res []Result
	var err error
	if r.cfg.Metric == Hamming {
		if r.queryBin.Words == nil {
			return errors.New("ssam: Exec before WriteQueryBinary")
		}
		res, _, err = r.SearchBinaryStatsSpan(r.queryBin, k, nil)
	} else {
		if r.query == nil {
			return errors.New("ssam: Exec before WriteQuery")
		}
		res, _, err = r.SearchStatsSpan(r.query, k, nil)
	}
	if err != nil {
		return err
	}
	r.lastRes = res
	return nil
}

// ReadResult returns the last Exec's neighbors (nread_result).
func (r *Region) ReadResult() ([]Result, error) {
	if r.cur.Load().freed {
		return nil, ErrFreed
	}
	if r.lastRes == nil {
		return nil, errors.New("ssam: ReadResult before Exec")
	}
	out := make([]Result, len(r.lastRes))
	copy(out, r.lastRes)
	return out, nil
}

// Search answers one query for the k nearest neighbors. Unlike the
// staged WriteQuery/Exec/ReadResult sequence it keeps no per-region
// query state, so it is safe to call from many goroutines; Device
// execution serializes on the simulated module and updates LastStats
// per query.
func (r *Region) Search(q []float32, k int) ([]Result, error) {
	res, _, err := r.SearchStats(q, k)
	return res, err
}

// SearchStats is Search returning the query's simulated device stats
// alongside the results (zero DeviceStats for Host execution). Unlike
// Search followed by LastStats it cannot interleave with a concurrent
// query's stats, which the sharded cluster layer relies on when many
// scatter-gather queries share one shard region.
func (r *Region) SearchStats(q []float32, k int) ([]Result, DeviceStats, error) {
	return r.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan is SearchStats recording the engine execution as an
// "exec" child of sp (internal/obs tracing). A nil span is the
// untraced fast path — every obs hook degrades to a nil check, so
// callers without a sampled trace pay nothing measurable.
func (r *Region) SearchStatsSpan(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	st := r.cur.Load()
	switch {
	case st.freed:
		return nil, DeviceStats{}, ErrFreed
	case r.cfg.Metric == Hamming:
		return nil, DeviceStats{}, errors.New("ssam: float query on a Hamming region")
	case len(q) != r.dims:
		return nil, DeviceStats{}, fmt.Errorf("ssam: query dim %d, want %d", len(q), r.dims)
	case st.eng == nil:
		return nil, DeviceStats{}, errors.New("ssam: Search before BuildIndex")
	case k <= 0:
		return nil, DeviceStats{}, fmt.Errorf("ssam: k must be positive")
	}
	return st.eng.search(q, k, sp)
}

// SearchBinary is Search for Hamming regions.
func (r *Region) SearchBinary(q BinaryCode, k int) ([]Result, error) {
	res, _, err := r.SearchBinaryStatsSpan(q, k, nil)
	return res, err
}

// SearchBinaryStatsSpan is SearchBinary returning the query's simulated
// device stats and recording the engine execution as an "exec" child of
// sp — the Hamming counterpart of SearchStatsSpan, so binary queries
// appear in /tracez like float ones. A nil span is the untraced fast
// path.
func (r *Region) SearchBinaryStatsSpan(q BinaryCode, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	st := r.cur.Load()
	switch {
	case st.freed:
		return nil, DeviceStats{}, ErrFreed
	case r.cfg.Metric != Hamming:
		return nil, DeviceStats{}, errors.New("ssam: binary query on a non-Hamming region")
	case q.Dim != r.dims:
		return nil, DeviceStats{}, fmt.Errorf("ssam: query width %d, want %d", q.Dim, r.dims)
	case st.eng == nil:
		return nil, DeviceStats{}, errors.New("ssam: SearchBinary before BuildIndex")
	case k <= 0:
		return nil, DeviceStats{}, fmt.Errorf("ssam: k must be positive")
	}
	return st.eng.searchBinary(q, k, sp)
}

// SearchBatch answers one query per element of qs. Host execution
// fans the batch out across worker goroutines (the index structures
// are read-only at query time); Device execution serves the batch
// sequentially — the module broadcasts one query at a time, and as the
// paper notes, batching buys little on a device that already saturates
// its internal bandwidth per query. After a Device batch, LastStats
// holds the accumulated execution. A mid-batch device failure is
// returned as a *BatchError naming the failing query; results for
// queries before it are kept in the returned slice and the stats they
// accumulated are committed. A mutated region answers the whole batch
// against one snapshot generation.
func (r *Region) SearchBatch(qs [][]float32, k int) ([][]Result, error) {
	return r.SearchBatchSpan(qs, k, nil)
}

// SearchBatchSpan is SearchBatch recording the engine execution as an
// "exec" child of sp, tagged with the execution mode and batch size.
// A nil span is the untraced fast path.
func (r *Region) SearchBatchSpan(qs [][]float32, k int, sp *obs.Span) ([][]Result, error) {
	st := r.cur.Load()
	switch {
	case st.freed:
		return nil, ErrFreed
	case st.eng == nil:
		return nil, errors.New("ssam: SearchBatch before BuildIndex")
	case k <= 0:
		return nil, fmt.Errorf("ssam: k must be positive")
	}
	for _, q := range qs {
		if len(q) != r.dims {
			return nil, fmt.Errorf("ssam: query dim %d, want %d", len(q), r.dims)
		}
	}
	return st.eng.searchBatch(qs, k, sp)
}

// pqParams maps the region's index tuning onto quantized-engine
// construction; zero values select the pq package defaults.
func (ip IndexParams) pqParams() knn.PQParams {
	return knn.PQParams{M: ip.M, Sample: ip.Sample, Rerank: ip.Rerank, Seed: ip.Seed}
}

// graphParams maps the region's index tuning onto graph construction;
// zero values select the package defaults.
func (ip IndexParams) graphParams() graph.Params {
	p := graph.DefaultParams()
	p.M, p.EfConstruction, p.EfSearch = orDefault(ip.M, p.M), orDefault(ip.EfConstruction, p.EfConstruction), orDefault(ip.EfSearch, p.EfSearch)
	p.Seed = seedOr(ip.Seed, p.Seed)
	return p
}

// QuantizedCounters is a point-in-time view of a quantized region's
// cumulative work counters, safe to read concurrently with searches.
type QuantizedCounters = knn.PQCounters

// QuantizedStats returns the quantized engine's cumulative work
// counters (table builds, code evals, re-rank evals) and whether the
// region has one. The counters back the server's /metrics series.
func (r *Region) QuantizedStats() (QuantizedCounters, bool) {
	if e, ok := r.cur.Load().eng.(pqCounted); ok {
		return e.quantizedStats()
	}
	return QuantizedCounters{}, false
}

// TieredCounters is a point-in-time view of a storage-backed region's
// cumulative cache counters, safe to read concurrently with searches.
type TieredCounters = tier.Counters

// TieredStats returns the storage tier's cumulative counters (reads,
// bytes read, cache hits/misses, evictions, prefetch hits, stalls,
// residency) and whether the region is serving from storage. The
// counters back the server's /metrics series.
func (r *Region) TieredStats() (TieredCounters, bool) {
	if e, ok := r.cur.Load().eng.(tierCounted); ok {
		return e.tieredStats(), true
	}
	return TieredCounters{}, false
}

// LastStats returns the simulated device stats of the last Exec,
// Search or SearchBatch (zero for Host execution).
func (r *Region) LastStats() DeviceStats {
	if e, ok := r.cur.Load().eng.(statsRecorder); ok {
		return e.lastStats()
	}
	return DeviceStats{}
}

// Device exposes the underlying simulated module (nil for Host
// execution) for benchmarking and model queries.
func (r *Region) Device() *ssamdev.Device {
	if e, ok := r.cur.Load().eng.(onDevice); ok {
		return e.device()
	}
	return nil
}

// Free releases the region (nfree). Further operations return
// ErrFreed; searches already running finish on the engine they
// started on or fail with a typed error.
func (r *Region) Free() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.publish(&state{freed: true})
	r.data, r.codes, r.store = nil, nil, nil
	r.lastRes, r.query = nil, nil
}
