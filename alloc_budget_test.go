package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Allocation budgets for the invocation fast path. These are enforced
// ceilings, not observations: the bypass proxy must stay at zero
// allocations per invocation, and the stub/cache paths must stay at or
// below the post-optimization budgets (each at least 30% under the
// pre-optimization counts recorded in bench.BaselineRows). A regression
// that reintroduces garbage on any of these paths fails here long before
// it would show in a latency benchmark.
//
// testing.AllocsPerRun counts allocations from every goroutine, so work
// shifted onto the netsim scheduler or the kernel pump still lands in
// the budget — "zero-allocation" means the whole system, not one
// goroutine's view.

// budgetCluster builds the E1 fixture: a KV exported from node 0's first
// context.
func budgetCluster(t *testing.T) (*bench.Cluster, *bench.KV) {
	t.Helper()
	if bench.RaceEnabled {
		t.Skip("alloc budgets are meaningless under -race (detector allocations are counted)")
	}
	c, err := bench.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, bench.NewKV()
}

func TestAllocBudgetBypass(t *testing.T) {
	c, kv := budgetCluster(t)
	ref, err := c.RT(0).Export(kv, "KV")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.RT(0).Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "noop"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Invoke(ctx, "noop"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("bypass invocation allocates %.1f/op, budget is 0", allocs)
	}
}

func TestAllocBudgetSameNodeStub(t *testing.T) {
	c, kv := budgetCluster(t)
	ref, err := c.RT(0).Export(kv, "KV")
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := c.NewContextRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := rt2.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-optimization this path cost 30 allocs/op and then 19 under a
	// ceiling of 21. Dispatch workers, single-buffer ingress, unboxed codec
	// lists and reply-cache reuse brought it to 12; 13 is the ceiling.
	const budget = 13.0
	if allocs := stubAllocs(t, p); allocs > budget {
		t.Errorf("same-node stub invocation allocates %.1f/op, budget is %.0f", allocs, budget)
	}
}

// stubAllocs warms p with one call and measures a stub "noop" invocation.
func stubAllocs(t *testing.T, p core.Proxy) float64 {
	t.Helper()
	ctx := context.Background()
	if _, err := p.Invoke(ctx, "noop"); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := p.Invoke(ctx, "noop"); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetRemoteStub(t *testing.T) {
	c, kv := budgetCluster(t)
	ref, err := c.RT(0).Export(kv, "KV")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.RT(1).Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-node over netsim (E1 remote): 19 allocs/op before dispatch
	// workers, unboxed codec lists and reply-cache reuse; measured 12.
	const budget = 13.0
	if allocs := stubAllocs(t, p); allocs > budget {
		t.Errorf("remote stub invocation allocates %.1f/op, budget is %.0f", allocs, budget)
	}
}

// TestAllocBudgetTCPStub holds the stub path over real loopback TCP —
// the socket read loop and frame ingress included — to its budget.
func TestAllocBudgetTCPStub(t *testing.T) {
	if bench.RaceEnabled {
		t.Skip("alloc budgets are meaningless under -race (detector allocations are counted)")
	}
	rts := make([]*core.Runtime, 2)
	peers := map[wire.NodeID]string{}
	for i := range rts {
		ep, err := netsim.ListenTCP(wire.NodeID(i+1), "127.0.0.1:0", peers)
		if err != nil {
			t.Fatal(err)
		}
		peers[ep.LocalNode()] = ep.ListenAddr()
		kn := kernel.NewNode(ep)
		t.Cleanup(func() { _ = kn.Close() })
		ktx, err := kn.NewContext()
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = core.NewRuntime(ktx)
	}
	ref, err := rts[0].Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}
	p, err := rts[1].Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Measured 12: the socket read loop costs each frame its buffer and
	// its Frame, as netsim's enqueue-time clone does.
	const budget = 13.0
	if allocs := stubAllocs(t, p); allocs > budget {
		t.Errorf("TCP stub invocation allocates %.1f/op, budget is %.0f", allocs, budget)
	}
}

func TestAllocBudgetCachedRead(t *testing.T) {
	c, _ := budgetCluster(t)
	factory := cache.NewFactory(bench.KVReads())
	c.RT(0).RegisterProxyType("KV", factory)
	c.RT(1).RegisterProxyType("KV", factory)
	ref, err := c.RT(0).Export(bench.NewKV(), "KV")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.RT(1).Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm: the write settles the version, the read fills the cache.
	if _, err := p.Invoke(ctx, "put", "k", int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, "get", "k"); err != nil {
		t.Fatal(err)
	}
	// Pre-optimization a warm hit cost 7 allocs/op; 4 is the enforced
	// ceiling (measured: 2 — the variadic args slice and the results).
	const budget = 4.0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Invoke(ctx, "get", "k"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Errorf("warm cached read allocates %.1f/op, budget is %.0f", allocs, budget)
	}
}

// TestAllocBudgetTrainAssemble holds train assembly to zero allocations
// once the destination buffer has grown: AppendTrainMember must encode in
// place, because the coalescer calls it on every staged frame while
// holding the destination queue's lock.
func TestAllocBudgetTrainAssemble(t *testing.T) {
	if bench.RaceEnabled {
		t.Skip("alloc budgets are meaningless under -race (detector allocations are counted)")
	}
	f := &wire.Frame{
		Kind:    wire.KindRequest,
		ReqID:   1,
		Src:     wire.Addr{Node: 1, Context: 1},
		Dst:     wire.Addr{Node: 2, Context: 1},
		Object:  7,
		Payload: []byte("train-member-payload"),
	}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		for i := 0; i < 8; i++ {
			var err error
			if buf, err = wire.AppendTrainMember(buf, f); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("assembling an 8-member train allocates %.1f/train, budget is 0", allocs)
	}
}

// TestAllocBudgetTrainUnpack holds the receive-side walk to one
// allocation per train: ForEachTrainMember hoists a single Frame out of
// the member loop and member payloads alias the train payload, so fill
// count must not multiply garbage on the kernel pump.
func TestAllocBudgetTrainUnpack(t *testing.T) {
	if bench.RaceEnabled {
		t.Skip("alloc budgets are meaningless under -race (detector allocations are counted)")
	}
	f := &wire.Frame{
		Kind:    wire.KindRequest,
		Src:     wire.Addr{Node: 1, Context: 1},
		Dst:     wire.Addr{Node: 2, Context: 1},
		Object:  7,
		Payload: []byte("train-member-payload"),
	}
	var payload []byte
	for i := 0; i < 8; i++ {
		f.ReqID = uint64(i + 1)
		var err error
		if payload, err = wire.AppendTrainMember(payload, f); err != nil {
			t.Fatal(err)
		}
	}
	var seen int
	allocs := testing.AllocsPerRun(200, func() {
		members, rejected, err := wire.ForEachTrainMember(payload, func(m *wire.Frame) {
			seen += int(m.ReqID)
		})
		if err != nil || rejected != 0 || members != 8 {
			t.Fatalf("walk = (%d, %d, %v)", members, rejected, err)
		}
	})
	if allocs > 1 {
		t.Errorf("unpacking an 8-member train allocates %.1f/train, budget is 1 (the hoisted Frame)", allocs)
	}
	_ = seen
}

// TestAllocBudgetShardMget holds a sharded 8-key mget to its budget: the
// router and the client on node 0, four plain guards two each on nodes 1
// and 2, all over netsim. The keys are chosen so that every member owns
// two, so the call sends one batch to each of the four members.
func TestAllocBudgetShardMget(t *testing.T) {
	c, err := bench.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if bench.RaceEnabled {
		t.Skip("alloc budgets are meaningless under -race (detector allocations are counted)")
	}
	spec := bench.KVShardSpec()
	sf := shard.NewFactory(spec, shard.WithName("budget"))
	router := shard.NewRouter(c.RT(0), sf)
	ctx := context.Background()
	names := []string{"m0", "m1", "m2", "m3"}
	for i, name := range names {
		ref, err := c.RT(1+i/2).Export(shard.NewGuard(name, spec, bench.NewKV()), "BudgetShard")
		if err != nil {
			t.Fatal(err)
		}
		if err := router.AddMember(ctx, name, ref); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := c.RT(0).ExportVia(sf, router, "BudgetShardedKV")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := c.NewContextRuntime(0)
	if err != nil {
		t.Fatal(err)
	}
	cli.RegisterProxyType("BudgetShardedKV", sf)
	p, err := cli.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	ring := shard.NewRing(names, shard.DefaultVirtualNodes)
	perOwner := map[string]int{}
	keys := make([]any, 0, 8)
	for i := 0; len(keys) < 8; i++ {
		k := fmt.Sprintf("key-%d", i)
		if o := ring.Owner(k); perOwner[o] < 2 {
			perOwner[o]++
			keys = append(keys, k)
		}
	}
	if _, err := p.Invoke(ctx, "mget", keys...); err != nil {
		t.Fatal(err)
	}
	// One batch per member: 4 stub invocations instead of 8. The per-key
	// fan-out cost 167 allocs/op here; batched it measures 113, and 120 is
	// the ceiling.
	const budget = 120.0
	allocs := testing.AllocsPerRun(200, func() {
		res, err := p.Invoke(ctx, "mget", keys...)
		if err != nil || len(res) != len(keys) {
			t.Fatalf("mget = %v, %v", res, err)
		}
	})
	t.Logf("sharded 8-key mget: %.1f allocs/op", allocs)
	if allocs > budget {
		t.Errorf("sharded 8-key mget allocates %.1f/op, budget is %.0f", allocs, budget)
	}
}

var _ core.Proxy = (*cache.Proxy)(nil)
