package main

import (
	"fmt"
	"math/rand"
	"slices"
)

// opKind is one invocation the benchmark issues.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opIncr
	opMget
)

func (k opKind) String() string {
	return [...]string{"get", "put", "incr", "mget"}[k]
}

// isRead reports whether the op counts toward the read_* metrics.
func (k opKind) isRead() bool { return k == opGet || k == opMget }

// mgetWidth is how many keys one mget names.
const mgetWidth = 8

// op is one pre-generated invocation. Keys are indices into the owning
// caller's key range; val indexes the caller's value pool, or for an
// mget its key set in inputs.mgets. Ops stay this small so that the
// inputs do not outweigh the deployment in peak_heap_mb.
type op struct {
	kind opKind
	obj  uint8 // which exported object: 0 or 1 (smart-readmostly only)
	key  int32
	val  int32
}

// spec describes one workload's deployment shape and traffic mix.
type spec struct {
	name    string
	callers int
	keys    int     // keys owned by each caller
	getP    float64 // share of get
	putP    float64 // share of put
	incrP   float64 // share of incr
	mgetP   float64 // share of mget
	zipf    float64 // Zipf exponent over a caller's keys; 0 = uniform
	objects int     // exported objects a caller spreads ops over
	warmOps int     // ops per caller run before timing, in the measured shape
	jitter  bool    // rpc clients keep the default full-jitter retransmit waits
	why     string
}

// Workload table. The why column is the reason each workload exists;
// README.md maps each per-layer metric to the end-to-end metric it should
// move on these workloads.
var workloads = []spec{
	{
		name: "stub-serial", callers: 1, keys: 1000,
		getP: 0.8, putP: 0.2, objects: 1, warmOps: 3000,
		why: "unloaded cost of one remote invocation through the default stub over loopback TCP; trains stay inline, the bypass side for trains",
	},
	{
		name: "stub-fanin8", callers: 8, keys: 125,
		getP: 0.8, putP: 0.2, objects: 1, warmOps: 600,
		why: "the same stub path with 8 callers on one connection: train coalescing, TCP write batching and concurrent dispatch do their work",
	},
	{
		name: "stub-fanin8-jitter", callers: 8, keys: 125,
		getP: 0.8, putP: 0.2, objects: 1, warmOps: 600, jitter: true,
		why: "stub-fanin8 with the rpc client's default full-jitter retransmit waits: reproduces a put run twice, so some runs report a stale get (not in BENCHMARK.json)",
	},
	{
		name: "smart-readmostly", callers: 2, keys: 1000,
		getP: 0.95, incrP: 0.05, zipf: 1.1, objects: 2, warmOps: 3000,
		why: "replica and cache smart proxies: local reads and cache hits against session-stamped ordered writes, WAL appends and invalidations",
	},
	{
		name: "shard-scatter", callers: 2, keys: 1000,
		getP: 0.4, putP: 0.1, mgetP: 0.5, objects: 1, warmOps: 1000,
		why: "sharded proxy: routing and 8-way scatter/gather of mget, where the slowest sub-invocation sets the tail",
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// Value sizes. Every tenth key starts with a large value and 10% of
// puts write one. Which keys are large is fixed, not drawn, so neither
// the state's size nor how popular its large keys are varies by seed.
const (
	smallValue = 16
	largeValue = 4096
	largeShare = 0.10
	smallPool  = 32 // distinct small values per caller, pool indices [0, 32)
	largePool  = 8  // distinct large values per caller, after the small ones
	opsPerCl   = 1 << 16
)

func isLargeKey(i int) bool { return i%10 == 9 }

// inputs is everything a run feeds the system, derived from the seed
// alone before any deployment starts.
type inputs struct {
	keys    [][]string           // [caller][key index] -> key string
	values  [][][]byte           // [caller][value index] -> value
	initial [][]int32            // [caller][key index] -> preloaded value index
	ops     [][]op               // [caller] -> op stream, replayed cyclically
	mgets   [][][mgetWidth]int32 // [caller][op.val] -> an mget's key indices
}

// mgetKeys is the key set of caller c's mget o.
func (in *inputs) mgetKeys(c int, o *op) []int32 { return in.mgets[c][o.val][:] }

// keyName is the key string for caller c's i-th key. Callers own
// disjoint ranges; traced runs parse the caller back out of a key.
func keyName(c, i int) string { return fmt.Sprintf("pb%02dk%05d", c, i) }

// generate derives a workload's inputs from seed. Each caller draws from
// its own stream, so adding callers leaves the others' streams unchanged.
func generate(w spec, seed int64) *inputs {
	in := &inputs{
		keys:    make([][]string, w.callers),
		values:  make([][][]byte, w.callers),
		initial: make([][]int32, w.callers),
		ops:     make([][]op, w.callers),
		mgets:   make([][][mgetWidth]int32, w.callers),
	}
	for c := 0; c < w.callers; c++ {
		r := rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + 1))
		in.keys[c] = make([]string, w.keys)
		for i := range in.keys[c] {
			in.keys[c][i] = keyName(c, i)
		}
		in.values[c] = make([][]byte, smallPool+largePool)
		for i := range in.values[c] {
			v := make([]byte, smallValue)
			if i >= smallPool {
				v = make([]byte, largeValue)
			}
			r.Read(v)
			in.values[c][i] = v
		}
		value := func(large bool) int32 {
			if large {
				return int32(smallPool + r.Intn(largePool))
			}
			return int32(r.Intn(smallPool))
		}
		in.initial[c] = make([]int32, w.keys)
		for i := range in.initial[c] {
			in.initial[c][i] = value(isLargeKey(i))
		}
		var z *rand.Zipf
		if w.zipf > 0 {
			z = rand.NewZipf(r, w.zipf, 1, uint64(w.keys-1))
		}
		pick := func() int32 {
			if z != nil {
				return int32(z.Uint64())
			}
			return int32(r.Intn(w.keys))
		}
		ops := make([]op, opsPerCl)
		for i := range ops {
			o := &ops[i]
			x := r.Float64()
			switch {
			case x < w.getP:
				o.kind = opGet
			case x < w.getP+w.putP:
				o.kind = opPut
				o.val = value(r.Float64() < largeShare)
			case x < w.getP+w.putP+w.incrP:
				o.kind = opIncr
			default:
				o.kind = opMget
				var keys [mgetWidth]int32
				for j := 0; j < mgetWidth; {
					k := int32(r.Intn(w.keys))
					if !slices.Contains(keys[:j], k) {
						keys[j] = k
						j++
					}
				}
				o.val = int32(len(in.mgets[c]))
				in.mgets[c] = append(in.mgets[c], keys)
			}
			o.key = pick()
			if w.objects > 1 {
				o.obj = uint8(r.Intn(w.objects))
			}
		}
		in.ops[c] = ops
	}
	return in
}

// model is one caller's shadow copy of its own keys, per object: what
// every read must return, and the value each key held before its last
// write (to name a stale read). Only the owning caller touches it.
type model [][]slot // [object][key index]

type slot struct{ cur, prev []byte }

func (s *slot) set(v []byte) { s.prev, s.cur = s.cur, v }

func newModel(w spec, in *inputs, c int) model {
	m := make(model, w.objects)
	for o := range m {
		m[o] = make([]slot, w.keys)
		for i, v := range in.initial[c] {
			m[o][i].cur = in.values[c][v]
		}
	}
	return m
}
