// Package mutate gives the linear engines a write path: an RCU-style
// mutable vector store supporting Upsert and Delete under live search
// traffic. The paper's target applications are write-heavy — InfiniTAM's
// loop-closure database interleaves an insert with a findMostSimilar on
// every frame, and NCAM (arXiv:1606.03742) motivates near-data search
// precisely for datasets that churn faster than they can be re-shipped —
// but the load-then-search engines of internal/knn cannot take a write
// without a full rebuild. This package closes that gap for the three
// linear engines (float32, 32-bit fixed point, Hamming codes).
//
// Design:
//
//   - Reads are lock-free. The store publishes an immutable snapshot
//     behind an atomic pointer; every Search loads the pointer once and
//     scans that generation to completion, so an in-flight query never
//     observes a half-applied mutation, and concurrent vault-parallel
//     results are bit-identical to a serial scan of the same generation.
//
//   - Writes are copy-on-write. A mutation clones only the per-vault
//     metadata it touches (a tombstone bitmap copy for a delete; an
//     append for an insert — appends extend slabs past every published
//     snapshot's length, which is the classic RCU append and never
//     races a reader), bumps the store's monotonic sequence number, and
//     publishes the next snapshot. One writer mutex serializes
//     mutations; readers never take it.
//
//   - Deletes are tombstones. A deleted row stays physically resident,
//     marked dead, until the background compactor (compact.go) rewrites
//     vaults whose garbage fraction passes a threshold and rebalances
//     vault sizes. Compaction changes physical layout only — never ids,
//     distances, or the sequence number — so it is invisible to search
//     results by construction.
//
// Results carry external ids (the id given to Upsert), and the top-k
// total order is (distance, then external id) — independent of physical
// row placement. That is the property the equivalence tests pin: after
// any mutation sequence, Search over the store is bit-identical to a
// fresh store (or fresh linear region) built from the surviving rows,
// even mid-compaction.
package mutate

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ssam/internal/knn"
	"ssam/internal/obs"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// Options tunes a Store. Zero values select the defaults.
type Options struct {
	// Vaults is the physical partition count (and the intra-query scan
	// parallelism, mirroring the paper's per-vault accelerators). <= 0
	// selects knn.DefaultVaults; values above knn.MaxVaults clamp.
	Vaults int
	// SerialBelow is the physical row count under which queries scan
	// serially regardless of the vault count (default
	// knn.DefaultSerialThreshold; negative forces the parallel path).
	SerialBelow int
	// GarbageThreshold is the per-vault dead fraction (dead / physical)
	// at which a compaction pass rewrites the vault (default 0.3).
	GarbageThreshold float64
	// RebalanceFactor triggers a full rebalance when the largest vault
	// holds more than RebalanceFactor times the mean physical rows per
	// vault (default 2.0; values <= 1 keep the default).
	RebalanceFactor float64
}

func (o Options) fill() Options {
	if o.Vaults <= 0 {
		o.Vaults = knn.DefaultVaults()
	}
	if o.Vaults > knn.MaxVaults {
		o.Vaults = knn.MaxVaults
	}
	if o.SerialBelow == 0 {
		o.SerialBelow = knn.DefaultSerialThreshold
	}
	if o.SerialBelow < 0 {
		o.SerialBelow = 0
	}
	if o.GarbageThreshold <= 0 {
		o.GarbageThreshold = 0.3
	}
	if o.RebalanceFactor <= 1 {
		o.RebalanceFactor = 2.0
	}
	return o
}

// loc addresses one physical row in the latest snapshot.
type loc struct {
	vault, row int
}

// vaultShard is one vault's immutable view within a snapshot. The
// slices are never written in place at an index a published snapshot
// can see: deletes copy the tombstone bitmap, inserts append past
// every published length, compaction swaps in fresh slices.
type vaultShard[V any] struct {
	rows  []V    // per-row vectors; each row is immutable once stored
	ids   []int  // external id per row
	dead  []bool // tombstone marks
	deadN int    // tombstones in this vault
}

// snapshot is one immutable generation of the store.
type snapshot[V any] struct {
	seq    uint64 // mutation sequence number at publish
	vaults []vaultShard[V]
	live   int // surviving rows
	dead   int // tombstoned rows still physically present
}

// StoreStats is a point-in-time view of a store's mutation state.
type StoreStats struct {
	Seq           uint64 // last committed mutation sequence number
	Live          int    // surviving rows
	Dead          int    // tombstones not yet compacted away
	Upserts       uint64 // committed upserts
	Deletes       uint64 // committed deletes (misses excluded)
	CompactPasses uint64 // compaction passes that ran (including no-ops)
	VaultRewrites uint64 // vaults rewritten to drop tombstones
	Rebalances    uint64 // full rebalance rewrites
	GarbageRatio  float64
}

// Store is a mutable vector store over rows of type V ([]float32,
// []int32, or vec.Binary — see NewFloat, NewFixed, NewBinary). All
// methods are safe for concurrent use; Search never blocks on writers.
type Store[V any] struct {
	opts  Options
	dim   int           // for Stats.Dims accounting and error text
	check func(V) error // row validation (width, finiteness is wire's job)
	clone func(V) V     // defensive copy on insert
	dist  func(q, row V) float64

	snap atomic.Pointer[snapshot[V]]

	mu    sync.Mutex  // serializes writers: Upsert, Delete, compaction
	index map[int]loc // external id -> physical location, latest snapshot

	seq      atomic.Uint64
	upserts  atomic.Uint64
	deletes  atomic.Uint64
	passes   atomic.Uint64
	rewrites atomic.Uint64
	rebals   atomic.Uint64

	// OnCompact, when non-nil, is invoked after every compaction pass
	// that changed the layout (vault rewrites or a rebalance). Set it
	// before StartCompactor; it runs on the compactor goroutine (or the
	// CompactOnce caller).
	OnCompact func(CompactResult)

	compactOnce sync.Once
	stopOnce    sync.Once
	stop        chan struct{}
	done        chan struct{}
}

// NewFloat returns a store over []float32 rows of the given
// dimensionality under metric (Euclidean, Manhattan or Cosine), the
// mutable counterpart of knn.Engine.
func NewFloat(dim int, metric vec.Metric, opts Options) *Store[[]float32] {
	if dim <= 0 {
		panic("mutate: dim must be positive")
	}
	switch metric {
	case vec.Euclidean, vec.Manhattan, vec.Cosine:
	default:
		panic(fmt.Sprintf("mutate: NewFloat does not support metric %v", metric))
	}
	return newStore[[]float32](dim, opts,
		func(v []float32) error {
			if len(v) != dim {
				return fmt.Errorf("mutate: row dim %d, want %d", len(v), dim)
			}
			for _, x := range v {
				if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
					return fmt.Errorf("mutate: row contains a non-finite value")
				}
			}
			return nil
		},
		func(v []float32) []float32 { return append([]float32(nil), v...) },
		func(q, row []float32) float64 { return vec.Distance(metric, q, row) },
	)
}

// NewFixed returns a store over Q16.16 fixed-point rows, the mutable
// counterpart of knn.FixedEngine. metric must be vec.Euclidean or
// vec.Manhattan (the metrics with fixed-point kernels); distances are
// raw fixed-point units, matching the engine.
func NewFixed(dim int, metric vec.Metric, opts Options) *Store[[]int32] {
	if dim <= 0 {
		panic("mutate: dim must be positive")
	}
	dist := vec.SquaredL2Fixed
	switch metric {
	case vec.Euclidean:
	case vec.Manhattan:
		dist = vec.L1Fixed
	default:
		panic("mutate: fixed-point store supports euclidean and manhattan only")
	}
	return newStore[[]int32](dim, opts,
		func(v []int32) error {
			if len(v) != dim {
				return fmt.Errorf("mutate: row dim %d, want %d", len(v), dim)
			}
			return nil
		},
		func(v []int32) []int32 { return append([]int32(nil), v...) },
		func(q, row []int32) float64 { return float64(dist(q, row)) },
	)
}

// NewBinary returns a store over bit-packed Hamming codes of the given
// width, the mutable counterpart of knn.HammingEngine.
func NewBinary(bits int, opts Options) *Store[vec.Binary] {
	if bits <= 0 {
		panic("mutate: bits must be positive")
	}
	return newStore[vec.Binary](bits, opts,
		func(v vec.Binary) error {
			if v.Dim != bits {
				return fmt.Errorf("mutate: code width %d, want %d", v.Dim, bits)
			}
			return nil
		},
		func(v vec.Binary) vec.Binary {
			return vec.Binary{Dim: v.Dim, Words: append([]uint64(nil), v.Words...)}
		},
		func(q, row vec.Binary) float64 { return float64(vec.Hamming(q, row)) },
	)
}

func newStore[V any](dim int, opts Options, check func(V) error, clone func(V) V, dist func(q, row V) float64) *Store[V] {
	s := &Store[V]{
		opts:  opts.fill(),
		dim:   dim,
		check: check,
		clone: clone,
		dist:  dist,
		index: make(map[int]loc),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.snap.Store(&snapshot[V]{vaults: make([]vaultShard[V], s.opts.Vaults)})
	return s
}

// Seed bulk-loads rows with the given external ids as generation 0,
// partitioned into contiguous vault chunks exactly like the immutable
// engines — a seeded store answers queries bit-identically to
// knn.NewEngineVaults over the same data when ids are 0..n-1. Seed is
// only valid on an empty store (no prior Seed or mutation) and does not
// advance the sequence number: the seed is the dataset the first
// mutation mutates.
func (s *Store[V]) Seed(ids []int, rows []V) error {
	if len(ids) != len(rows) {
		return fmt.Errorf("mutate: %d ids for %d rows", len(ids), len(rows))
	}
	for _, v := range rows {
		if err := s.check(v); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.index) > 0 || s.seq.Load() != 0 {
		return fmt.Errorf("mutate: Seed on a non-empty store")
	}
	vaults := make([]vaultShard[V], s.opts.Vaults)
	n := len(rows)
	chunk := (n + s.opts.Vaults - 1) / s.opts.Vaults
	for v := range vaults {
		lo := v * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			continue
		}
		vs := vaultShard[V]{
			rows: make([]V, 0, hi-lo),
			ids:  make([]int, 0, hi-lo),
			dead: make([]bool, hi-lo),
		}
		for i := lo; i < hi; i++ {
			id := ids[i]
			if id < 0 {
				return fmt.Errorf("mutate: negative id %d", id)
			}
			if _, dup := s.index[id]; dup {
				return fmt.Errorf("mutate: duplicate id %d in seed", id)
			}
			vs.rows = append(vs.rows, s.clone(rows[i]))
			vs.ids = append(vs.ids, id)
			s.index[id] = loc{v, len(vs.ids) - 1}
		}
		vaults[v] = vs
	}
	s.snap.Store(&snapshot[V]{vaults: vaults, live: n})
	return nil
}

// Upsert inserts row v under id, replacing (tombstoning) any existing
// row with the same id, and returns the mutation's committed sequence
// number. The row is copied; the caller may reuse v.
func (s *Store[V]) Upsert(id int, v V) (uint64, error) {
	if id < 0 {
		return 0, fmt.Errorf("mutate: negative id %d", id)
	}
	if err := s.check(v); err != nil {
		return 0, err
	}
	row := s.clone(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	vaults := append([]vaultShard[V](nil), cur.vaults...)
	live, dead := cur.live, cur.dead
	if l, ok := s.index[id]; ok {
		tombstone(&vaults[l.vault], l.row)
		live--
		dead++
	}
	t := targetVault(vaults)
	vs := &vaults[t]
	vs.rows = append(vs.rows, row)
	vs.ids = append(vs.ids, id)
	vs.dead = append(vs.dead, false)
	s.index[id] = loc{t, len(vs.ids) - 1}
	seq := s.seq.Add(1)
	s.upserts.Add(1)
	s.snap.Store(&snapshot[V]{seq: seq, vaults: vaults, live: live + 1, dead: dead})
	return seq, nil
}

// Delete tombstones the row with the given id. It reports whether the
// id was present; a miss does not commit (the sequence number returned
// is the current one, unchanged).
func (s *Store[V]) Delete(id int) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.index[id]
	if !ok {
		return s.seq.Load(), false
	}
	cur := s.snap.Load()
	vaults := append([]vaultShard[V](nil), cur.vaults...)
	tombstone(&vaults[l.vault], l.row)
	delete(s.index, id)
	seq := s.seq.Add(1)
	s.deletes.Add(1)
	s.snap.Store(&snapshot[V]{seq: seq, vaults: vaults, live: cur.live - 1, dead: cur.dead + 1})
	return seq, true
}

// tombstone marks row r of vs dead via a copied bitmap, so published
// snapshots sharing the old bitmap are untouched.
func tombstone[V any](vs *vaultShard[V], r int) {
	nd := make([]bool, len(vs.dead))
	copy(nd, vs.dead)
	nd[r] = true
	vs.dead = nd
	vs.deadN++
}

// targetVault picks the append target: the vault with the fewest
// physical rows, ties to the lowest index — deterministic, and the
// cheap half of keeping vaults balanced (the compactor handles the
// rest when deletes skew them).
func targetVault[V any](vaults []vaultShard[V]) int {
	t := 0
	for v := 1; v < len(vaults); v++ {
		if len(vaults[v].ids) < len(vaults[t].ids) {
			t = v
		}
	}
	return t
}

// Get returns the row stored under id, if present. The returned row
// aliases the store's immutable copy; callers must not modify it.
func (s *Store[V]) Get(id int) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var zero V
	l, ok := s.index[id]
	if !ok {
		return zero, false
	}
	snap := s.snap.Load()
	return snap.vaults[l.vault].rows[l.row], true
}

// Len returns the number of live (surviving) rows.
func (s *Store[V]) Len() int { return s.snap.Load().live }

// Dead returns the number of tombstoned rows not yet compacted away.
func (s *Store[V]) Dead() int { return s.snap.Load().dead }

// Seq returns the last committed mutation sequence number.
func (s *Store[V]) Seq() uint64 { return s.seq.Load() }

// Vaults returns the physical partition count.
func (s *Store[V]) Vaults() int { return s.opts.Vaults }

// Dim returns the row dimensionality (bits for binary stores).
func (s *Store[V]) Dim() int { return s.dim }

// Stats returns a point-in-time view of the store's mutation state.
func (s *Store[V]) Stats() StoreStats {
	snap := s.snap.Load()
	st := StoreStats{
		Seq:           snap.seq,
		Live:          snap.live,
		Dead:          snap.dead,
		Upserts:       s.upserts.Load(),
		Deletes:       s.deletes.Load(),
		CompactPasses: s.passes.Load(),
		VaultRewrites: s.rewrites.Load(),
		Rebalances:    s.rebals.Load(),
	}
	if phys := snap.live + snap.dead; phys > 0 {
		st.GarbageRatio = float64(snap.dead) / float64(phys)
	}
	return st
}

// Survivors returns the live rows and their ids in ascending id order —
// the canonical rebuilt-from-survivors dataset the equivalence tests
// compare against. Rows alias the store's immutable copies.
func (s *Store[V]) Survivors() (ids []int, rows []V) {
	snap := s.snap.Load()
	ids = make([]int, 0, snap.live)
	byID := make(map[int]V, snap.live)
	for _, vs := range snap.vaults {
		for i, id := range vs.ids {
			if !vs.dead[i] {
				ids = append(ids, id)
				byID[id] = vs.rows[i]
			}
		}
	}
	sort.Ints(ids)
	rows = make([]V, len(ids))
	for i, id := range ids {
		rows[i] = byID[id]
	}
	return ids, rows
}

// Search returns the k nearest live rows to q, closest first, ids being
// the external ids given to Upsert/Seed. The scan runs against one
// snapshot generation end to end.
func (s *Store[V]) Search(q V, k int) []topk.Result {
	res, _ := s.SearchStatsSpan(q, k, nil)
	return res
}

// SearchStats is Search plus work accounting; Stats.Seq carries the
// generation scanned.
func (s *Store[V]) SearchStats(q V, k int) ([]topk.Result, knn.Stats) {
	return s.SearchStatsSpan(q, k, nil)
}

// SearchStatsSpan is SearchStats recording one "vault" child span of sp
// per scanned partition (sp may be nil). Results are bit-identical to a
// serial scan of the same generation at any vault count: the total
// order is (distance, external id), independent of physical layout.
func (s *Store[V]) SearchStatsSpan(q V, k int, sp *obs.Span) ([]topk.Result, knn.Stats) {
	snap := s.snap.Load()
	return s.searchSnap(snap, q, k, sp, false)
}

// SearchBatch answers one query per element of qs, all against a single
// snapshot generation (batch-level consistency). Short batches run each
// query vault-parallel in turn; batches of at least workers queries fan
// out across workers goroutines with serial per-query scans, keeping
// total parallelism at the worker count. workers <= 0 selects the vault
// count.
func (s *Store[V]) SearchBatch(qs []V, k int, workers int, sp *obs.Span) [][]topk.Result {
	snap := s.snap.Load()
	if workers <= 0 {
		workers = s.opts.Vaults
	}
	if len(qs) < workers || workers <= 1 {
		out := make([][]topk.Result, len(qs))
		for i, q := range qs {
			out[i], _ = s.searchSnap(snap, q, k, sp, false)
		}
		return out
	}
	return knn.FanOut(len(qs), workers, func(i int) []topk.Result {
		res, _ := s.searchSnap(snap, qs[i], k, nil, true)
		return res
	})
}

// searchSnap scans one snapshot. forceSerial suppresses vault
// parallelism (cross-query fan-out paths provide their own).
func (s *Store[V]) searchSnap(snap *snapshot[V], q V, k int, sp *obs.Span, forceSerial bool) ([]topk.Result, knn.Stats) {
	if k <= 0 {
		return nil, knn.Stats{Seq: snap.seq}
	}
	phys := snap.live + snap.dead
	if forceSerial || s.opts.Vaults == 1 || phys < s.opts.SerialBelow {
		sel := topk.New(k)
		var st knn.Stats
		for v := range snap.vaults {
			s.scanVault(&snap.vaults[v], q, sel, &st)
		}
		st.Seq = snap.seq
		return sel.Results(), st
	}
	type part struct {
		res   []topk.Result
		stats knn.Stats
	}
	parts := make([]part, len(snap.vaults))
	var wg sync.WaitGroup
	for v := range snap.vaults {
		if len(snap.vaults[v].ids) == 0 {
			continue
		}
		vsp := sp.Start("vault",
			obs.Tag{Key: "vault", Value: v},
			obs.Tag{Key: "rows", Value: len(snap.vaults[v].ids)})
		wg.Add(1)
		go func(v int, vsp *obs.Span) {
			defer wg.Done()
			sel := topk.New(k)
			s.scanVault(&snap.vaults[v], q, sel, &parts[v].stats)
			parts[v].res = sel.Results()
			vsp.End()
		}(v, vsp)
	}
	wg.Wait()
	var st knn.Stats
	lists := make([][]topk.Result, 0, len(parts))
	for v := range parts {
		if parts[v].res != nil {
			lists = append(lists, parts[v].res)
		}
		st.Add(parts[v].stats)
	}
	st.Seq = snap.seq
	return topk.MergeSorted(k, lists...), st
}

// scanVault runs the scan kernel over one vault's live rows.
func (s *Store[V]) scanVault(vs *vaultShard[V], q V, sel *topk.Selector, st *knn.Stats) {
	for i := range vs.rows {
		if vs.dead[i] {
			continue
		}
		d := s.dist(q, vs.rows[i])
		st.DistEvals++
		st.Dims += s.dim
		st.PQInserts++
		if sel.Push(vs.ids[i], d) {
			st.PQKept++
		}
	}
}
