package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/wire"
)

// TestShardBatchToReplicaMember: a member that is a replica group gets
// each batch through its replica proxy under the unchanged single-key
// method name. A read batch is served from the client's local copy — no
// write to the primary, no WAL append — and a write batch goes to the
// primary as one ordered, logged write.
func TestShardBatchToReplicaMember(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	var rts []*core.Runtime
	for id := wire.NodeID(1); id <= 3; id++ {
		ep, err := net.Attach(id)
		if err != nil {
			t.Fatal(err)
		}
		node := kernel.NewNode(ep)
		t.Cleanup(func() { node.Close() })
		ktx, err := node.NewContext()
		if err != nil {
			t.Fatal(err)
		}
		rt := core.NewRuntime(ktx)
		rts = append(rts, rt)
	}
	t.Cleanup(func() {
		for _, rt := range rts {
			rt.CloseProxies()
		}
	})
	routerRT, memberRT, cli := rts[0], rts[1], rts[2]

	var walMu sync.Mutex
	wals := map[wire.Addr]*persist.MemStore{}
	rf := replica.NewFactory([]string{"get"},
		func() replica.StateMachine { return NewGuard("m0", testSpec, newKVStore()) },
		replica.WithName("shard-rkv"),
		replica.WithWALStore(func(node wire.Addr) persist.LogStore {
			walMu.Lock()
			defer walMu.Unlock()
			s := persist.NewMemStore(nil)
			wals[node] = s
			return s
		}))
	for _, rt := range rts {
		rt.RegisterProxyType("RKVMember", rf)
	}
	memberRef, err := memberRT.Export(NewGuard("m0", testSpec, newKVStore()), "RKVMember")
	if err != nil {
		t.Fatal(err)
	}
	sf := NewFactory(testSpec, WithName("rkv"))
	router := NewRouter(routerRT, sf)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := router.AddMember(ctx, "m0", memberRef); err != nil {
		t.Fatal(err)
	}
	ref, err := routerRT.ExportVia(sf, router, "ShardedKV")
	if err != nil {
		t.Fatal(err)
	}
	cli.RegisterProxyType("ShardedKV", NewFactory(Spec{}))
	p, err := cli.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := cli.Import(memberRef) // the proxy the shard proxy routes through
	if err != nil {
		t.Fatal(err)
	}
	rp, ok := mp.(*replica.Proxy)
	if !ok {
		t.Fatalf("member proxy is %T, want *replica.Proxy", mp)
	}
	walBytes := func() int {
		walMu.Lock()
		defer walMu.Unlock()
		s, ok := wals[memberRef.Target.Addr]
		if !ok {
			t.Fatal("no WAL at the primary")
		}
		b, err := s.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return len(b)
	}

	const n = 4
	puts, gets := make([]any, n), make([]any, n)
	for i := range puts {
		k := fmt.Sprintf("rk-%d", i)
		puts[i], gets[i] = []any{k, int64(10 + i)}, k
	}
	_, sent0, _ := rp.Stats()
	wal0 := walBytes()
	if _, err := p.Invoke(ctx, "mput", puts...); err != nil {
		t.Fatal(err)
	}
	if _, sent, _ := rp.Stats(); sent != sent0+1 {
		t.Errorf("writes sent for a %d-key mput = %d, want 1", n, sent-sent0)
	}
	wal1 := walBytes()
	if wal1 <= wal0 {
		t.Error("the write batch was not logged at the primary")
	}

	local0, sent1, _ := rp.Stats()
	res, err := p.Invoke(ctx, "mget", gets...)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != int64(10+i) {
			t.Errorf("mget[%d] = %v, want %d", i, v, 10+i)
		}
	}
	local, sent, _ := rp.Stats()
	if local <= local0 {
		t.Error("the read batch was not served from the local copy")
	}
	if sent != sent1 {
		t.Errorf("the read batch sent %d writes to the primary", sent-sent1)
	}
	if walBytes() != wal1 {
		t.Error("the read batch appended to the WAL")
	}
}
