package knn

import (
	"ssam/internal/obs"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// FixedEngine is an exact linear-scan engine over Q16.16 fixed-point
// vectors (Section II-D: fixed-point arithmetic is much cheaper in
// hardware and loses negligible accuracy). Only Euclidean and
// Manhattan have fixed-point kernels.
type FixedEngine struct {
	data        []int32
	dim         int
	n           int
	metric      vec.Metric
	vaults      int
	serialBelow int
}

// NewFixedEngine creates a fixed-point linear engine. metric must be
// vec.Euclidean or vec.Manhattan. vaults is the intra-query scan
// partition count (<= 0 selects DefaultVaults, above MaxVaults clamps).
func NewFixedEngine(data []int32, dim int, metric vec.Metric, vaults int) *FixedEngine {
	if dim <= 0 || len(data)%dim != 0 {
		panic("knn: data length not a multiple of dim")
	}
	if metric != vec.Euclidean && metric != vec.Manhattan {
		panic("knn: fixed-point engine supports euclidean and manhattan only")
	}
	return &FixedEngine{
		data:        data,
		dim:         dim,
		n:           len(data) / dim,
		metric:      metric,
		vaults:      ResolveVaults(vaults),
		serialBelow: DefaultSerialThreshold,
	}
}

// SetSerialThreshold overrides the dataset size below which queries
// scan serially regardless of the vault count.
func (e *FixedEngine) SetSerialThreshold(n int) { e.serialBelow = n }

// Row returns fixed-point database vector i.
func (e *FixedEngine) Row(i int) []int32 { return e.data[i*e.dim : (i+1)*e.dim] }

// Search returns the k nearest neighbors of the fixed-point query q.
// Distances in the results are raw fixed-point units.
func (e *FixedEngine) Search(q []int32, k int) []topk.Result {
	res, _ := e.SearchStatsSpan(q, k, nil)
	return res
}

// SearchStats is Search plus work accounting.
func (e *FixedEngine) SearchStats(q []int32, k int) ([]topk.Result, Stats) {
	return e.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan is SearchStats recording one "vault" child span of sp
// per scanned slice (sp may be nil). Results are bit-identical to a
// serial scan at any vault count.
func (e *FixedEngine) SearchStatsSpan(q []int32, k int, sp *obs.Span) ([]topk.Result, Stats) {
	dist := vec.SquaredL2Fixed
	if e.metric == vec.Manhattan {
		dist = vec.L1Fixed
	}
	scan := func(lo, hi int) ([]topk.Result, Stats) {
		sel := topk.New(k)
		var st Stats
		for i := lo; i < hi; i++ {
			d := float64(dist(q, e.Row(i)))
			st.DistEvals++
			st.Dims += e.dim
			st.PQInserts++
			if sel.Push(i, d) {
				st.PQKept++
			}
		}
		return sel.Results(), st
	}
	if e.vaults == 1 || e.n < e.serialBelow {
		return scan(0, e.n)
	}
	return scanVaults(e.n, e.vaults, k, sp, scan)
}

// HammingEngine is an exact linear-scan engine over binarized vectors
// using Hamming distance, the workload of Table V's Hamming row and
// the Table VI SSAM-vs-AP comparison.
type HammingEngine struct {
	data        []vec.Binary
	vaults      int
	serialBelow int
}

// NewHammingEngine creates a Hamming-space linear engine. vaults is
// the intra-query scan partition count (<= 0 selects DefaultVaults,
// above MaxVaults clamps).
func NewHammingEngine(data []vec.Binary, vaults int) *HammingEngine {
	return &HammingEngine{
		data:        data,
		vaults:      ResolveVaults(vaults),
		serialBelow: DefaultSerialThreshold,
	}
}

// Vaults returns the intra-query vault count.
func (e *HammingEngine) Vaults() int { return e.vaults }

// SetSerialThreshold overrides the dataset size below which queries
// scan serially regardless of the vault count.
func (e *HammingEngine) SetSerialThreshold(n int) { e.serialBelow = n }

// Search returns the k nearest codes to q by Hamming distance.
func (e *HammingEngine) Search(q vec.Binary, k int) []topk.Result {
	res, _ := e.SearchStatsSpan(q, k, nil)
	return res
}

// SearchStats is Search plus work accounting; Dims counts code bits.
func (e *HammingEngine) SearchStats(q vec.Binary, k int) ([]topk.Result, Stats) {
	return e.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan is SearchStats recording one "vault" child span of sp
// per scanned slice (sp may be nil). Results are bit-identical to a
// serial scan at any vault count.
func (e *HammingEngine) SearchStatsSpan(q vec.Binary, k int, sp *obs.Span) ([]topk.Result, Stats) {
	scan := func(lo, hi int) ([]topk.Result, Stats) {
		sel := topk.New(k)
		var st Stats
		for i := lo; i < hi; i++ {
			d := float64(vec.Hamming(q, e.data[i]))
			st.DistEvals++
			st.Dims += q.Dim
			st.PQInserts++
			if sel.Push(i, d) {
				st.PQKept++
			}
		}
		return sel.Results(), st
	}
	n := len(e.data)
	if e.vaults == 1 || n < e.serialBelow {
		return scan(0, n)
	}
	return scanVaults(n, e.vaults, k, sp, scan)
}
