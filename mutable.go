package ssam

import (
	"errors"
	"fmt"
	"time"

	"ssam/internal/mutate"
	"ssam/internal/obs"
)

// ErrImmutableEngine is returned by Upsert and Delete on regions whose
// engine cannot take writes. Only Linear regions are mutable: the index
// structures (kd-tree forests, k-means trees, LSH tables, and the
// layered graph) bake row positions into their geometry at build time,
// so an in-place write would silently corrupt recall; they require a
// rebuild (see DESIGN.md §11).
var ErrImmutableEngine = errors.New("ssam: engine does not support mutation; only Linear regions are mutable")

// MutationStats is a point-in-time view of a mutable region's write
// state (sequence number, live/dead rows, compaction counters).
type MutationStats = mutate.StoreStats

// CompactResult summarizes one compaction pass over a mutable region.
type CompactResult = mutate.CompactResult

// DefaultCompactInterval is the background compactor period for regions
// that migrate to the mutable store.
const DefaultCompactInterval = 200 * time.Millisecond

// mutableEngine is the engine a Linear region migrates to on its first
// write: the RCU store adapter.
type mutableEngine interface {
	engine
	upsert(id int, row any) (uint64, error)
	del(id int) (uint64, bool)
	compact() CompactResult
	stats() MutationStats
	seq() uint64
	len() int
	setCompactHook(fn func(CompactResult))
}

// mutEngine serves a migrated region from the RCU store (internal/mutate),
// float and Hamming rows alike; searches never block on writers. On
// Device execution the store computes the results — the cycle simulator
// scans a frozen layout — and the module prices the scan analytically:
// same result bits, modeled cost.
type mutEngine[V any] struct {
	base
	*devState // nil for Host execution
	s         *mutate.Store[V]
	workers   int
}

// newMutEngine seeds s with rows under ids 0..n-1 — exactly the
// engine's rows under ids equal to row indices, so a query racing the
// migration answers bit-identically either way — and starts its
// compactor.
func newMutEngine[V any](s *mutate.Store[V], rows []V, hook func(CompactResult), dev *devState, workers int) (*mutEngine[V], error) {
	ids := make([]int, len(rows))
	for i := range ids {
		ids[i] = i
	}
	if err := s.Seed(ids, rows); err != nil {
		return nil, err
	}
	s.OnCompact = hook
	s.StartCompactor(DefaultCompactInterval)
	return &mutEngine[V]{devState: dev, s: s, workers: workers}, nil
}

func (m *mutEngine[V]) execTag() obs.Tag {
	if m.devState != nil {
		return execDevice
	}
	return execHost
}

func (m *mutEngine[V]) search(q []float32, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	return m.query(q, k, sp)
}

func (m *mutEngine[V]) searchBinary(q BinaryCode, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	return m.query(q, k, sp)
}

func (m *mutEngine[V]) query(q any, k int, sp *obs.Span) ([]Result, DeviceStats, error) {
	v, ok := q.(V)
	if !ok {
		return nil, DeviceStats{}, errNoEngine
	}
	esp := sp.Start("exec", m.execTag(), obs.Tag{Key: "mutable", Value: true}, vaultsTag(m.s.Vaults()))
	res, st := m.s.SearchStatsSpan(v, k, esp)
	if esp != nil {
		esp.SetTag("seq", st.Seq)
		esp.SetTag("live_rows", st.DistEvals)
	}
	esp.End()
	if m.devState == nil {
		return res, DeviceStats{}, nil
	}
	// st.DistEvals is exactly the live rows the device would scan.
	return res, m.record(toDeviceStats(m.dev.ApproxLinearStats(st.DistEvals))), nil
}

// searchBatch answers every query against one snapshot generation —
// batch-level consistency under concurrent writes.
func (m *mutEngine[V]) searchBatch(qs [][]float32, k int, sp *obs.Span) ([][]Result, error) {
	vs, ok := any(qs).([]V)
	if !ok {
		return nil, errNoEngine
	}
	live := m.s.Len()
	esp := sp.Start("exec", m.execTag(), obs.Tag{Key: "mutable", Value: true}, batchTag(qs), vaultsTag(m.s.Vaults()))
	out := m.s.SearchBatch(vs, k, m.workers, esp)
	esp.End()
	if m.devState != nil {
		per := toDeviceStats(m.dev.ApproxLinearStats(live))
		var agg DeviceStats
		for range qs {
			agg.add(per)
		}
		m.record(agg)
	}
	return out, nil
}

func (m *mutEngine[V]) upsert(id int, row any) (uint64, error) { return m.s.Upsert(id, row.(V)) }
func (m *mutEngine[V]) del(id int) (uint64, bool)              { return m.s.Delete(id) }
func (m *mutEngine[V]) compact() CompactResult                 { return m.s.CompactOnce() }
func (m *mutEngine[V]) stats() MutationStats                   { return m.s.Stats() }
func (m *mutEngine[V]) seq() uint64                            { return m.s.Seq() }
func (m *mutEngine[V]) len() int                               { return m.s.Len() }
func (m *mutEngine[V]) setCompactHook(fn func(CompactResult))  { m.s.OnCompact = fn }
func (m *mutEngine[V]) close()                                 { m.s.Close() }

// mutable returns the region's store adapter if it has migrated to the
// write path (lock-free).
func (r *Region) mutable() mutableEngine {
	m, _ := r.cur.Load().eng.(mutableEngine)
	return m
}

// Mutable reports whether the region has taken at least one write and
// is serving from the mutable store.
func (r *Region) Mutable() bool { return r.mutable() != nil }

// Seq returns the region's last committed mutation sequence number
// (zero before the first write).
func (r *Region) Seq() uint64 {
	if m := r.mutable(); m != nil {
		return m.seq()
	}
	return 0
}

// MutationStats returns the region's write-path counters; ok is false
// if the region has never been mutated.
func (r *Region) MutationStats() (MutationStats, bool) {
	if m := r.mutable(); m != nil {
		return m.stats(), true
	}
	return MutationStats{}, false
}

// SetCompactHook installs fn to run after every compaction pass that
// changes the region's physical layout (the server uses it to emit
// compaction traces and counters). It applies to the current store and
// any future migration; fn runs on the compactor goroutine.
func (r *Region) SetCompactHook(fn func(CompactResult)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onCompact = fn
	if m := r.mutable(); m != nil {
		m.setCompactHook(fn)
	}
}

// CompactNow runs one synchronous compaction pass, for deterministic
// tests and the server's POST /regions/{name}/compact endpoint. It is
// an error on a region that has never been mutated (there is nothing to
// compact before the first write).
func (r *Region) CompactNow() (CompactResult, error) {
	st := r.cur.Load()
	if st.freed {
		return CompactResult{}, ErrFreed
	}
	m, ok := st.eng.(mutableEngine)
	if !ok {
		return CompactResult{}, errors.New("ssam: CompactNow on an unmutated region")
	}
	return m.compact(), nil
}

// Upsert inserts vector v under id (replacing any existing row with
// that id) and returns the committed mutation sequence number. The
// first write migrates a Linear region from its immutable engine to the
// mutable store, seeded with the loaded dataset under ids 0..n-1;
// searches before and after migration are bit-identical on the same
// logical content. Safe to call concurrently with searches and other
// mutations. Non-Linear regions return ErrImmutableEngine.
func (r *Region) Upsert(id int, v []float32) (uint64, error) {
	if r.cfg.Metric == Hamming {
		return 0, errors.New("ssam: float upsert on a Hamming region; use UpsertBinary")
	}
	if len(v) != r.dims {
		return 0, fmt.Errorf("ssam: row dim %d, want %d", len(v), r.dims)
	}
	m, err := r.migrate()
	if err != nil {
		return 0, err
	}
	return m.upsert(id, v)
}

// UpsertBinary is Upsert for Hamming regions.
func (r *Region) UpsertBinary(id int, c BinaryCode) (uint64, error) {
	if r.cfg.Metric != Hamming {
		return 0, errors.New("ssam: binary upsert on a non-Hamming region")
	}
	if c.Dim != r.dims {
		return 0, fmt.Errorf("ssam: code width %d, want %d", c.Dim, r.dims)
	}
	m, err := r.migrate()
	if err != nil {
		return 0, err
	}
	return m.upsert(id, c)
}

// Delete tombstones the row with the given id, reporting whether it was
// present; a miss does not commit a sequence number. Like Upsert, the
// first write migrates a Linear region to the mutable store.
func (r *Region) Delete(id int) (seq uint64, ok bool, err error) {
	m, err := r.migrate()
	if err != nil {
		return 0, false, err
	}
	seq, ok = m.del(id)
	return seq, ok, nil
}

// migrate returns the region's mutable store, performing the one-time
// engine-to-store migration on first use. Concurrent first writes are
// serialized by r.mu; searches never take that lock — they observe the
// migration through the published engine, and because the store is
// seeded with exactly the engine's rows, a query racing the flip
// returns bit-identical results either way.
func (r *Region) migrate() (mutableEngine, error) {
	if m := r.mutable(); m != nil {
		return m, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cur.Load()
	if m, ok := cur.eng.(mutableEngine); ok {
		return m, nil
	}
	if cur.freed {
		return nil, ErrFreed
	}
	if r.cfg.Mode != Linear {
		return nil, ErrImmutableEngine
	}
	if r.cfg.Storage != nil {
		// Storage-backed regions are immutable: the backing file is the
		// dataset, and the RCU store has no out-of-core write path yet
		// (see ROADMAP follow-ups).
		return nil, fmt.Errorf("%w: storage-backed region", ErrImmutableEngine)
	}
	if cur.eng == nil {
		return nil, errors.New("ssam: mutation before BuildIndex")
	}
	// A Device region keeps its module: the store's searches are priced
	// on it, and LastStats carries on across the migration.
	var dev *devState
	if d, ok := cur.eng.(*devEngine); ok {
		dev = d.devState
	}
	opts := mutate.Options{Vaults: r.cfg.Vaults}
	var m mutableEngine
	var err error
	if r.cfg.Metric == Hamming {
		m, err = newMutEngine(mutate.NewBinary(r.dims, opts), r.codes, r.onCompact, dev, r.cfg.Workers)
	} else {
		rows := make([][]float32, len(r.data)/r.dims)
		for i := range rows {
			rows[i] = r.data[i*r.dims : (i+1)*r.dims]
		}
		m, err = newMutEngine(mutate.NewFloat(r.dims, r.cfg.Metric.toVec(), opts), rows, r.onCompact, dev, r.cfg.Workers)
	}
	if err != nil {
		return nil, err
	}
	r.publish(&state{eng: m, rows: cur.rows})
	return m, nil
}
