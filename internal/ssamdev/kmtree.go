package ssamdev

// On-device hierarchical k-means tree search: nodes in the scratchpad,
// centroids in SSAM memory (Section III-D), traversal on the scalar
// unit + hardware stack, centroid evaluation and leaf scans on the
// vector unit.

import (
	"fmt"
	"sync"

	"ssam/internal/asm"
	"ssam/internal/isa"
	"ssam/internal/sim"
	"ssam/internal/topk"
	"ssam/internal/vec"
)

// KMTreeIndex is a built on-device hierarchical k-means tree.
type KMTreeIndex struct {
	dev       *Device
	branching int
	slices    []kmSlice
	progMu    sync.Mutex // guards progs: a query's PUs fill it in parallel
	progs     map[progKey][]isa.Inst
}

type kmSlice struct {
	scratch []int32 // serialized nodes (at the layout's TreeBase)
	dram    []int32 // tree-order rows followed by the centroid array
	ids     []int32 // tree-order row -> global id
	lay     sim.KMTreeLayout
}

type progKey struct {
	checks   int
	centBase int
}

// BuildKMTreeIndex builds a per-PU k-means tree with the given
// branching factor and leaf size.
func (d *Device) BuildKMTreeIndex(branching, leafSize int, seed int64) (*KMTreeIndex, error) {
	if d.metric != vec.Euclidean {
		return nil, fmt.Errorf("ssamdev: k-means tree requires a Euclidean device")
	}
	if branching < 2 || branching > 16 {
		return nil, fmt.Errorf("ssamdev: branching %d out of range [2,16]", branching)
	}
	puCfg := d.puConfig(1)
	ti := &KMTreeIndex{dev: d, branching: branching, progs: map[progKey][]isa.Inst{}}
	for i := range d.slices {
		sl := &d.slices[i]
		n := len(sl.ids)
		lay := sim.NewKMTreeLayout(d.dim, d.cfg.PU.VectorLen, puCfg.ScratchWords, branching, n)
		if lay.MaxNodes < 3 {
			return nil, fmt.Errorf("ssamdev: dims %d leave no scratchpad room for a tree", d.dim)
		}
		tree, err := sim.BuildSerializedKMTree(sl.dram, n, d.dim, d.padded,
			branching, leafSize, lay.MaxNodes, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("ssamdev: slice %d: %w", i, err)
		}
		ks := kmSlice{
			scratch: tree.Words,
			dram:    make([]int32, n*d.padded+len(tree.Cents)),
			ids:     make([]int32, n),
			lay:     lay,
		}
		for newRow, oldRow := range tree.Order {
			copy(ks.dram[newRow*d.padded:(newRow+1)*d.padded],
				sl.dram[int(oldRow)*d.padded:(int(oldRow)+1)*d.padded])
			ks.ids[newRow] = sl.ids[oldRow]
		}
		copy(ks.dram[lay.CentBase:], tree.Cents)
		ti.slices = append(ti.slices, ks)
	}
	return ti, nil
}

func (t *KMTreeIndex) program(checks, centBase int) ([]isa.Inst, error) {
	key := progKey{checks, centBase}
	t.progMu.Lock()
	defer t.progMu.Unlock()
	if p, ok := t.progs[key]; ok {
		return p, nil
	}
	// The layout differs between slices only in CentBase (shard sizes
	// differ by one row), so kernels are cached per (checks, CentBase).
	lay := t.slices[0].lay
	lay.CentBase = centBase
	src := sim.KMTreeKernel(t.dev.dim, t.dev.cfg.PU.VectorLen, checks, lay)
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, err
	}
	t.progs[key] = prog
	return prog, nil
}

// Search runs the on-device approximate search with a per-PU scan
// budget.
func (t *KMTreeIndex) Search(q []float32, k, checksPerPU int) ([]topk.Result, QueryStats, error) {
	d := t.dev
	if len(q) != d.dim {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: query dim %d, want %d", len(q), d.dim)
	}
	if checksPerPU <= 0 {
		return nil, QueryStats{}, fmt.Errorf("ssamdev: checks must be positive")
	}
	query := make([]int32, d.padded)
	copy(query, sim.QuantizeDevice(q, d.shift))
	puCfg := d.puConfig(((k + topk.QueueDepth - 1) / topk.QueueDepth) * topk.QueueDepth)

	results := make([][]topk.Result, len(t.slices))
	outs := make([]sim.Stats, len(t.slices))
	errs := make([]error, len(t.slices))
	runParallel(len(t.slices), func(i int) {
		ks := &t.slices[i]
		prog, err := t.program(checksPerPU, ks.lay.CentBase)
		if err != nil {
			errs[i] = err
			return
		}
		pu := sim.New(puCfg, ks.dram)
		if err := pu.WriteScratch(0, query); err != nil {
			errs[i] = err
			return
		}
		if err := pu.WriteScratch(ks.lay.TreeBase, ks.scratch); err != nil {
			errs[i] = err
			return
		}
		if err := pu.Run(prog); err != nil {
			errs[i] = err
			return
		}
		local := pu.Results()
		for j := range local {
			local[j].ID = int(ks.ids[local[j].ID])
		}
		results[i] = local
		outs[i] = pu.Stats()
	})

	var st QueryStats
	st.PUs = len(t.slices)
	lists := make([][]topk.Result, 0, len(t.slices))
	for i := range outs {
		if errs[i] != nil {
			return nil, QueryStats{}, errs[i]
		}
		lists = append(lists, results[i])
		s := outs[i]
		if s.Cycles > st.Cycles {
			st.Cycles = s.Cycles
		}
		st.Instructions += s.Instructions
		st.VectorInsts += s.VectorInsts
		st.DRAMBytesRead += s.DRAMBytesRead
		st.PQInserts += s.PQInserts
	}
	st.Seconds = float64(st.Cycles) / d.cfg.PU.ClockHz
	return topk.Merge(k, lists...), st, nil
}
