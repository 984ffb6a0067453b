package ssam

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ssam/internal/graph"
	"ssam/internal/kdtree"
	"ssam/internal/kmeans"
	"ssam/internal/knn"
	"ssam/internal/lsh"
	"ssam/internal/obs"
	"ssam/internal/ssamdev"
	"ssam/internal/tier"
)

// engine is a built region: one mode × execution-target adapter over
// the index that answers its queries. BuildIndex builds one completely
// and then publishes it (Region.cur); every Search* call loads it once,
// so a query runs start to finish against a single engine.
type engine interface {
	search(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error)
	searchBinary(q BinaryCode, k int, sp *obs.Span) ([]Result, DeviceStats, error)
	searchBatch(qs [][]float32, k int, sp *obs.Span) ([][]Result, error)
	// setKnob retargets the accuracy knob (SetChecks).
	setKnob(n int) error
	// close releases what the engine owns once it is unpublished.
	close()
}

// Optional adapter methods, behind LastStats, Device, QuantizedStats
// and TieredStats.
type (
	statsRecorder interface{ lastStats() DeviceStats }
	onDevice      interface{ device() *ssamdev.Device }
	pqCounted     interface {
		quantizedStats() (QuantizedCounters, bool)
	}
	tierCounted interface{ tieredStats() TieredCounters }
)

// errNoEngine answers a query the built engine cannot serve, such as a
// float batch on a Hamming region.
var errNoEngine = errors.New("ssam: no engine built")

// build is the region's one build table: it maps the configuration to
// a completely built engine over the loaded rows. cur is the engine
// being replaced (nil after a reload). Called with r.mu held.
func (r *Region) build(cur engine) (engine, error) {
	cfg, ip, metric := r.cfg, r.cfg.Index, r.cfg.Metric.toVec()
	if cfg.Execution == Device {
		return r.buildDevice()
	}
	switch cfg.Mode {
	case Linear:
		switch {
		case cfg.Metric == Hamming:
			return &hammingEngine{e: knn.NewHammingEngine(r.codes, cfg.Vaults)}, nil
		case cfg.Storage == nil:
			return &linearEngine{e: knn.NewEngineVaults(r.data, r.dims, metric, cfg.Workers, cfg.Vaults)}, nil
		case r.data == nil:
			// Rebuild without a reload: the backing file is the dataset,
			// and the engine scanning it is already built.
			return cur, nil
		}
		return r.tiered(func(st *tier.Store) (engine, error) {
			return &tieredEngine{e: knn.NewTieredEngine(st, metric)}, nil
		})
	case KDTree:
		p := kdtree.DefaultParams()
		p.NumTrees, p.LeafSize, p.Seed = orDefault(ip.Trees, p.NumTrees), orDefault(ip.LeafSize, p.LeafSize), seedOr(ip.Seed, p.Seed)
		f := kdtree.Build(r.data, r.dims, p)
		return newIndexEngine(f.SearchChecks, orDefault(ip.Checks, f.Checks), cfg.Workers), nil
	case KMeans:
		p := kmeans.DefaultParams()
		p.Branching, p.LeafSize, p.Seed = orDefault(ip.Branching, p.Branching), orDefault(ip.LeafSize, p.LeafSize), seedOr(ip.Seed, p.Seed)
		t := kmeans.Build(r.data, r.dims, p)
		return newIndexEngine(t.SearchChecks, orDefault(ip.Checks, t.Checks), cfg.Workers), nil
	case MPLSH:
		p := lsh.DefaultParams()
		p.Tables, p.Bits, p.Seed = orDefault(ip.Tables, p.Tables), orDefault(ip.Bits, p.Bits), seedOr(ip.Seed, p.Seed)
		x := lsh.Build(r.data, r.dims, p)
		return newIndexEngine(x.SearchProbes, orDefault(ip.Probes, x.Probes), cfg.Workers), nil
	case Graph:
		g := graph.Build(r.data, r.dims, ip.graphParams())
		e := &graphEngine{g: g}
		e.fn, e.workers = g.SearchEf, cfg.Workers
		e.init(g.EfSearch)
		return e, nil
	case Quantized:
		if cfg.Storage == nil {
			e, err := knn.NewPQEngineVaults(r.data, r.dims, metric, ip.pqParams(), cfg.Workers, cfg.Vaults)
			if err != nil {
				return nil, err
			}
			x := &pqEngine{e: e}
			x.init(e.Rerank())
			return x, nil
		}
		// Codebook training needs the float rows, so a rebuild after
		// they moved out of core requires a reload first.
		if r.data == nil {
			return nil, errors.New("ssam: rebuilding a storage-backed quantized region requires a reload")
		}
		return r.tiered(func(st *tier.Store) (engine, error) {
			e, err := knn.NewTieredPQEngine(r.data, r.dims, metric, ip.pqParams(), cfg.Workers, cfg.Vaults, st)
			if err != nil {
				return nil, err
			}
			x := &tieredPQEngine{e: e}
			x.init(e.Rerank())
			return x, nil
		})
	}
	return nil, fmt.Errorf("ssam: unknown mode %v", cfg.Mode)
}

// tiered writes the loaded rows to the backing file and builds a
// storage-backed engine over it. On success the full-precision rows
// live only in the file; the engine owns the store and closes it when
// it is retired.
func (r *Region) tiered(mk func(*tier.Store) (engine, error)) (engine, error) {
	st, err := tier.Create(r.cfg.Storage.Path, r.data, r.dims, knn.ResolveVaults(r.cfg.Vaults), tier.Options{
		BudgetBytes: r.cfg.Storage.BudgetBytes,
		Prefetch:    r.cfg.Storage.Prefetch,
	})
	if err != nil {
		return nil, err
	}
	e, err := mk(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	r.store, r.data = st, nil
	return e, nil
}

// buildDevice lays the dataset out across the simulated module's vaults
// and assembles the mode's kernels — the Device rows of the build table.
func (r *Region) buildDevice() (engine, error) {
	cfg, ip := r.cfg, r.cfg.Index
	devCfg := ssamdev.DefaultConfig(cfg.VectorLength)
	var dev *ssamdev.Device
	var err error
	if cfg.Metric == Hamming {
		dev, err = ssamdev.NewBinary(devCfg, r.codes)
	} else {
		dev, err = ssamdev.NewFloat(devCfg, r.data, r.dims, cfg.Metric.toVec())
	}
	if err != nil {
		return nil, err
	}
	if cfg.Storage != nil {
		// The device serves the dataset from modeled flash behind its
		// vault DRAM: the analytic storage tier prices cold reads with
		// the ann_in_ssd channel/latency/bandwidth parameters while the
		// budget sets the device-side cache fraction.
		scfg := ssamdev.DefaultStorageConfig()
		scfg.BudgetBytes = cfg.Storage.BudgetBytes
		scfg.Prefetch = cfg.Storage.Prefetch
		if err := dev.AttachStorage(scfg); err != nil {
			return nil, err
		}
	}
	d := &devEngine{devState: &devState{dev: dev}, fault: &r.batchFault}
	leaf, checks := orDefault(ip.LeafSize, 8), orDefault(ip.Checks, 32)
	switch cfg.Mode {
	case Linear:
		d.run = func(q []float32, k, _ int) ([]Result, ssamdev.QueryStats, error) { return dev.Search(q, k) }
	case KDTree:
		var t *ssamdev.TreeIndex
		t, err = dev.BuildKDTreeIndex(leaf)
		d.run = t.Search
		d.init(checks)
	case KMeans:
		var t *ssamdev.KMTreeIndex
		t, err = dev.BuildKMTreeIndex(orDefault(ip.Branching, 4), leaf, ip.Seed+1)
		d.run = t.Search
		d.init(checks)
	case MPLSH:
		bits := ip.Bits
		if bits <= 0 || bits > 12 {
			bits = 6
		}
		var x *ssamdev.LSHIndex
		x, err = dev.BuildLSHIndex(orDefault(ip.Tables, 4), bits, ip.Seed+1)
		if err == nil && ip.Probes > 1 {
			x.MultiProbe = true
		}
		d.run = func(q []float32, k, _ int) ([]Result, ssamdev.QueryStats, error) { return x.Search(q, k) }
	case Graph:
		// The graph is built on the host and attached: construction is
		// identical for both execution targets, so one build (and one
		// seed) yields the same adjacency — and therefore the same
		// neighbors — on Host and Device. The device contributes the
		// NDSEARCH-style execution model.
		g := graph.Build(r.data, r.dims, ip.graphParams())
		var gi *ssamdev.GraphIndex
		gi, err = dev.AttachGraphIndex(g)
		d.run = gi.SearchEf
		d.init(g.EfSearch)
	case Quantized:
		// Like Graph, the codebook is trained on the host and attached,
		// so Host and Device answer bit-identically; the device model
		// prices the §IV bandwidth story — ADC tables resident in each
		// vault's scratchpad, code bytes streamed from vault DRAM.
		var pi *ssamdev.PQIndex
		d.pq, err = knn.NewPQEngineVaults(r.data, r.dims, cfg.Metric.toVec(), ip.pqParams(), cfg.Workers, cfg.Vaults)
		if err == nil {
			pi, err = dev.AttachPQIndex(d.pq)
			d.run = pi.SearchRerank
			d.init(d.pq.Rerank())
		}
	default:
		err = fmt.Errorf("ssam: unknown mode %v", cfg.Mode)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// orDefault returns v when it is set (positive), else def.
func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// seedOr returns seed when it is set (non-zero), else def.
func seedOr(seed, def int64) int64 {
	if seed != 0 {
		return seed
	}
	return def
}

// knob is an adapter's live accuracy knob: checks for the trees, probes
// for MPLSH, efSearch for the graph, the re-rank depth for PQ. Searches
// load it once per call and pass it into the index, so SetChecks
// retargets live traffic without a lock. A knob never initialized
// belongs to a mode that has none.
type knob struct {
	n   atomic.Int64
	set bool
}

func (k *knob) init(n int) { k.n.Store(int64(n)); k.set = true }

func (k *knob) get() int { return int(k.n.Load()) }

func (k *knob) setKnob(n int) error {
	if !k.set {
		return errors.New("ssam: SetChecks on a non-indexed region")
	}
	k.n.Store(int64(n))
	return nil
}

// base supplies an adapter's defaults: a knob (none unless initialized),
// no query kind served, nothing to release. Adapters override the query
// methods they serve.
type base struct{ knob }

func (*base) search([]float32, int, *obs.Span) ([]Result, DeviceStats, error) {
	return nil, DeviceStats{}, errNoEngine
}

func (*base) searchBinary(BinaryCode, int, *obs.Span) ([]Result, DeviceStats, error) {
	return nil, DeviceStats{}, errNoEngine
}

func (*base) searchBatch([][]float32, int, *obs.Span) ([][]Result, error) {
	return nil, errNoEngine
}

func (*base) close() {}

var (
	execHost   = obs.Tag{Key: "execution", Value: "host"}
	execDevice = obs.Tag{Key: "execution", Value: "device"}
)

func batchTag(qs [][]float32) obs.Tag { return obs.Tag{Key: "batch", Value: len(qs)} }

func vaultsTag(n int) obs.Tag { return obs.Tag{Key: "vaults", Value: n} }

// tagADC records a quantized query's ADC and re-rank work on its span.
func tagADC(esp *obs.Span, st knn.Stats) {
	if esp != nil {
		esp.SetTag("code_evals", st.CodeEvals)
		esp.SetTag("rerank_evals", st.DistEvals)
	}
}

// sequential answers a batch one query at a time. The first failure
// stops it as a *BatchError naming the query; results before it stand.
func sequential(qs [][]float32, search func(i int) ([]Result, error)) ([][]Result, error) {
	out := make([][]Result, len(qs))
	for i := range qs {
		res, err := search(i)
		if err != nil {
			return out, &BatchError{Index: i, Err: err}
		}
		out[i] = res
	}
	return out, nil
}

// linearEngine is the exact in-RAM scan. The engine is vault-parallel:
// each scanned slice shows up as a "vault" child of the exec span, so
// /tracez exposes per-vault skew. It owns the batch policy — short
// batches run queries in turn with vault-parallel scans, long ones fan
// out across workers with serial scans — and either way matches the
// serial path bit for bit.
type linearEngine struct {
	base
	e *knn.Engine
}

func (x *linearEngine) search(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	esp := sp.Start("exec", execHost, vaultsTag(x.e.Vaults()))
	res, _ := x.e.SearchStatsSpan(q, k, esp)
	esp.End()
	return res, DeviceStats{}, nil
}

func (x *linearEngine) searchBatch(qs [][]float32, k int, sp *obs.Span) ([][]Result, error) {
	esp := sp.Start("exec", execHost, batchTag(qs), vaultsTag(x.e.Vaults()))
	defer esp.End()
	return x.e.SearchBatchSpan(qs, k, esp), nil
}

// hammingEngine is the exact in-RAM scan over binary codes; it serves
// binary queries only.
type hammingEngine struct {
	base
	e *knn.HammingEngine
}

func (x *hammingEngine) searchBinary(q BinaryCode, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	esp := sp.Start("exec", execHost, vaultsTag(x.e.Vaults()))
	res, _ := x.e.SearchStatsSpan(q, k, esp)
	esp.End()
	return res, DeviceStats{}, nil
}

// indexEngine adapts the host kd-tree, k-means and MPLSH indexes: fn
// searches at the live knob, and batches fan out across workers (the
// index structures are read-only at query time).
type indexEngine struct {
	base
	fn      func(q []float32, k, knob int) []Result
	workers int
}

func newIndexEngine(fn func(q []float32, k, knob int) []Result, knob, workers int) *indexEngine {
	x := &indexEngine{fn: fn, workers: workers}
	x.init(knob)
	return x
}

func (x *indexEngine) search(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	esp := sp.Start("exec", execHost)
	res := x.fn(q, k, x.get())
	esp.End()
	return res, DeviceStats{}, nil
}

func (x *indexEngine) searchBatch(qs [][]float32, k int, sp *obs.Span) ([][]Result, error) {
	esp := sp.Start("exec", execHost, batchTag(qs))
	defer esp.End()
	n := x.get()
	return knn.FanOut(len(qs), x.workers, func(i int) []Result { return x.fn(qs[i], k, n) }), nil
}

// graphEngine is the host HNSW traversal. Its single queries hand the
// exec span to the graph, so the traversal shows up as "descend"
// (upper-layer hops) and "base" (layer-0 beam) children, each tagged
// with its hop and distance-eval counts.
type graphEngine struct {
	indexEngine
	g *graph.Index
}

func (x *graphEngine) search(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	ef := x.get()
	esp := sp.Start("exec", execHost, obs.Tag{Key: "mode", Value: "graph"}, obs.Tag{Key: "ef", Value: ef})
	res, st := x.g.SearchEfStatsSpan(q, k, ef, esp)
	if esp != nil {
		kst := st.KNN()
		esp.SetTag("dist_evals", kst.DistEvals)
		esp.SetTag("dims", kst.Dims)
	}
	esp.End()
	return res, DeviceStats{}, nil
}

// pqEngine is the in-RAM quantized scan, vault-parallel with the linear
// engine's batch policy; the knob is the exact re-rank depth.
type pqEngine struct {
	base
	e *knn.PQEngine
}

func (x *pqEngine) search(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	rerank := x.get()
	esp := sp.Start("exec", execHost,
		obs.Tag{Key: "mode", Value: "quantized"},
		obs.Tag{Key: "m", Value: x.e.M()},
		obs.Tag{Key: "rerank", Value: rerank},
		vaultsTag(x.e.Vaults()))
	res, st := x.e.SearchStatsSpan(q, k, rerank, esp)
	tagADC(esp, st)
	esp.End()
	return res, DeviceStats{}, nil
}

func (x *pqEngine) searchBatch(qs [][]float32, k int, sp *obs.Span) ([][]Result, error) {
	esp := sp.Start("exec", execHost, obs.Tag{Key: "mode", Value: "quantized"}, batchTag(qs), vaultsTag(x.e.Vaults()))
	defer esp.End()
	return x.e.SearchBatchSpan(qs, k, x.get(), esp), nil
}

func (x *pqEngine) quantizedStats() (QuantizedCounters, bool) { return x.e.Counters(), true }

// tieredEngine is the exact scan over a storage-backed region: vault
// pages stream through the store's cache, each a "vault" child span
// tagged tier_hit, so a sampled trace tells cached from cold scans.
// Batches run sequentially — each scan already overlaps storage reads
// with compute — and a failed backing read aborts the batch as a
// *BatchError naming the query.
type tieredEngine struct {
	base
	e *knn.TieredEngine
}

func (x *tieredEngine) search(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	esp := sp.Start("exec", execHost, obs.Tag{Key: "mode", Value: "tiered"}, vaultsTag(x.e.Vaults()))
	res, _, err := x.e.SearchStatsSpan(q, k, esp)
	esp.End()
	return res, DeviceStats{}, err
}

func (x *tieredEngine) searchBatch(qs [][]float32, k int, sp *obs.Span) ([][]Result, error) {
	esp := sp.Start("exec", execHost, obs.Tag{Key: "mode", Value: "tiered"}, batchTag(qs), vaultsTag(x.e.Vaults()))
	defer esp.End()
	return sequential(qs, func(i int) ([]Result, error) {
		res, _, err := x.e.SearchStatsSpan(qs[i], k, esp)
		return res, err
	})
}

func (x *tieredEngine) tieredStats() TieredCounters { return x.e.Store().Counters() }

func (x *tieredEngine) close() { x.e.Store().Close() }

// tieredPQEngine is the storage-backed quantized scan: ADC runs over
// the resident codes, and only the exact re-rank touches the store,
// grouped by vault page. Batches run sequentially, as tieredEngine's.
type tieredPQEngine struct {
	base
	e *knn.TieredPQEngine
}

func (x *tieredPQEngine) search(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	rerank := x.get()
	esp := sp.Start("exec", execHost,
		obs.Tag{Key: "mode", Value: "tiered-quantized"},
		obs.Tag{Key: "m", Value: x.e.M()},
		obs.Tag{Key: "rerank", Value: rerank},
		vaultsTag(x.e.Vaults()))
	res, st, err := x.e.SearchStatsSpan(q, k, rerank, esp)
	if err == nil {
		tagADC(esp, st)
	}
	esp.End()
	return res, DeviceStats{}, err
}

func (x *tieredPQEngine) searchBatch(qs [][]float32, k int, sp *obs.Span) ([][]Result, error) {
	esp := sp.Start("exec", execHost, obs.Tag{Key: "mode", Value: "tiered-quantized"}, batchTag(qs), vaultsTag(x.e.Vaults()))
	defer esp.End()
	rerank := x.get()
	return sequential(qs, func(i int) ([]Result, error) {
		res, _, err := x.e.SearchStatsSpan(qs[i], k, rerank, esp)
		return res, err
	})
}

func (x *tieredPQEngine) tieredStats() TieredCounters { return x.e.Store().Counters() }

func (x *tieredPQEngine) close() { x.e.Store().Close() }

// devState is the simulated module behind a Device region: mu
// serializes the stateful cycle simulator and guards last, the stats of
// the most recent query (LastStats). Its methods are nil-safe, so an
// adapter that may run on either target can embed a nil *devState.
type devState struct {
	dev  *ssamdev.Device
	mu   sync.Mutex
	last DeviceStats
}

func (d *devState) device() *ssamdev.Device {
	if d == nil {
		return nil
	}
	return d.dev
}

func (d *devState) lastStats() DeviceStats {
	if d == nil {
		return DeviceStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

func (d *devState) record(st DeviceStats) DeviceStats {
	d.mu.Lock()
	d.last = st
	d.mu.Unlock()
	return st
}

// devEngine runs queries on the simulated module: the cycle-level
// linear scan and on-device tree and LSH kernels, or the analytic graph
// and PQ models over host-built indexes. run answers one float query
// at the live knob.
type devEngine struct {
	base
	*devState
	run   func(q []float32, k, knob int) ([]Result, ssamdev.QueryStats, error)
	pq    *knn.PQEngine      // Quantized mode's engine (QuantizedStats)
	fault *func(i int) error // the region's batchFault seam
}

func (d *devEngine) search(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	return d.exec(sp, func() ([]Result, ssamdev.QueryStats, error) { return d.run(q, k, d.get()) })
}

func (d *devEngine) searchBinary(q BinaryCode, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	return d.exec(sp, func() ([]Result, ssamdev.QueryStats, error) { return d.dev.SearchBinary(q, k) })
}

// exec runs one query on the module. The exec span includes the module
// lock wait: concurrent queries serialize on the simulated device, and
// that queueing is exactly what a trace should show.
func (d *devEngine) exec(sp *obs.Span, run func() ([]Result, ssamdev.QueryStats, error)) ([]Result, DeviceStats, error) {
	esp := sp.Start("exec", execDevice)
	d.mu.Lock()
	defer d.mu.Unlock()
	res, st, err := run()
	esp.End()
	if err != nil {
		return nil, DeviceStats{}, err
	}
	d.last = toDeviceStats(st)
	return res, d.last, nil
}

// searchBatch serves the batch sequentially — the module broadcasts one
// query at a time — and leaves the accumulated execution in LastStats,
// including a failed batch's completed prefix.
func (d *devEngine) searchBatch(qs [][]float32, k int, sp *obs.Span) ([][]Result, error) {
	esp := sp.Start("exec", execDevice, batchTag(qs))
	defer esp.End()
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.get()
	var agg DeviceStats
	out, err := sequential(qs, func(i int) ([]Result, error) {
		if fault := *d.fault; fault != nil {
			if err := fault(i); err != nil {
				return nil, err
			}
		}
		res, st, err := d.run(qs[i], k, n)
		if err == nil {
			agg.add(toDeviceStats(st))
		}
		return res, err
	})
	d.last = agg
	return out, err
}

func (d *devEngine) quantizedStats() (QuantizedCounters, bool) {
	if d.pq == nil {
		return QuantizedCounters{}, false
	}
	return d.pq.Counters(), true
}

func toDeviceStats(st ssamdev.QueryStats) DeviceStats {
	return DeviceStats{
		Cycles:             st.Cycles,
		Seconds:            st.Seconds,
		Instructions:       st.Instructions,
		VectorInstructions: st.VectorInsts,
		DRAMBytesRead:      st.DRAMBytesRead,
		ProcessingUnits:    st.PUs,
		StorageBytesRead:   st.StorageBytesRead,
		StorageCacheHits:   st.StorageCacheHits,
		StorageStalls:      st.StorageStalls,
	}
}

// add accumulates one query's execution into a batch total.
func (s *DeviceStats) add(o DeviceStats) {
	s.Cycles += o.Cycles
	s.Seconds += o.Seconds
	s.Instructions += o.Instructions
	s.VectorInstructions += o.VectorInstructions
	s.DRAMBytesRead += o.DRAMBytesRead
	s.ProcessingUnits = o.ProcessingUnits
	s.StorageBytesRead += o.StorageBytesRead
	s.StorageCacheHits += o.StorageCacheHits
	s.StorageStalls += o.StorageStalls
}
