// Package bench provides the shared fixtures for the experiment suite
// (EXPERIMENTS.md): a multi-runtime cluster over the simulated network, a
// KV service that satisfies every smart-proxy contract (plain service,
// cacheable, replicable state machine, migratable object), seeded workload
// generators, and latency/table helpers used by both the root benchmarks
// and cmd/proxybench.
package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Cluster is n runtimes, one per simulated node, plus the network that
// joins them. All runtimes share one Observer, so counters from every
// context land in one registry and a cross-context invocation's spans
// reconstruct as one tree out of Obs.Tracer.
type Cluster struct {
	Net      *netsim.Network
	Obs      *obs.Observer
	Runtimes []*core.Runtime
	// Coalesced holds each node's train-coalescing endpoint wrapper when
	// the cluster was built with NewCoalescedCluster (nil otherwise);
	// index i belongs to node i+1.
	Coalesced []*netsim.CoalescedEndpoint
	nodes     []*kernel.Node
}

// NewCluster builds a cluster of n runtimes.
func NewCluster(n int, opts ...netsim.NetworkOption) (*Cluster, error) {
	return newCluster(n, false, opts...)
}

// NewCoalescedCluster builds a cluster whose node endpoints coalesce
// same-destination frames into trains (netsim.Coalesce) — the fixture for
// measuring the train path against the plain NewCluster baseline.
func NewCoalescedCluster(n int, opts ...netsim.NetworkOption) (*Cluster, error) {
	return newCluster(n, true, opts...)
}

func newCluster(n int, coalesce bool, opts ...netsim.NetworkOption) (*Cluster, error) {
	c := &Cluster{Net: netsim.New(opts...), Obs: obs.NewObserver()}
	for i := 0; i < n; i++ {
		ep, err := c.Net.Attach(wire.NodeID(i + 1))
		if err != nil {
			c.Close()
			return nil, err
		}
		if coalesce {
			ce := netsim.Coalesce(ep, wire.CoalescerConfig{})
			c.Coalesced = append(c.Coalesced, ce)
			ep = ce
		}
		node := kernel.NewNode(ep)
		c.nodes = append(c.nodes, node)
		ktx, err := node.NewContext()
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Runtimes = append(c.Runtimes, core.NewRuntime(ktx, core.WithObserver(c.Obs)))
	}
	return c, nil
}

// RT returns the i-th runtime.
func (c *Cluster) RT(i int) *core.Runtime { return c.Runtimes[i] }

// NewContextRuntime adds another context (and runtime) on node i — for
// experiments that need same-node, cross-context placement (E1).
func (c *Cluster) NewContextRuntime(i int) (*core.Runtime, error) {
	ktx, err := c.nodes[i].NewContext()
	if err != nil {
		return nil, err
	}
	return core.NewRuntime(ktx, core.WithObserver(c.Obs)), nil
}

// Close shuts everything down.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		_ = n.Close()
	}
	if c.Net != nil {
		c.Net.Close()
	}
}

// KV is the workhorse service: a keyed int64 store. Method surface:
//
//	get(k string) -> int64          (read)
//	sum() -> int64                  (read)
//	put(k string, v int64) -> int64 (write)
//	incr(k string) -> int64         (write)
//	noop() -> ()                    (read; for null-invocation latency)
//
// It implements core.Service, via Snapshot/Restore also
// replica.StateMachine and migrate.Migratable, and via
// Keys/ExportKeys/ImportKeys/DropKeys also shard.Store.
type KV struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewKV builds an empty store.
func NewKV() *KV { return &KV{m: make(map[string]int64)} }

// KVReads lists the KV's cacheable/replicable read methods.
func KVReads() []string { return []string{"get", "sum", "noop"} }

// KVShardSpec declares the KV keyspace for sharding: get/put/incr route
// by their key argument, mget/mput send one get/put batch per owning
// member.
func KVShardSpec() shard.Spec {
	return shard.Spec{
		SingleKey: []string{"get", "put", "incr"},
		MultiKey:  map[string]string{"mget": "get", "mput": "put"},
	}
}

// Invoke implements core.Service.
func (s *KV) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch method {
	case "noop":
		return nil, nil
	case "get":
		if len(args) < 1 {
			return nil, core.BadArgs(method, "want (key)")
		}
		k, _ := args[0].(string)
		return []any{s.m[k]}, nil
	case "sum":
		var t int64
		for _, v := range s.m {
			t += v
		}
		return []any{t}, nil
	case "put":
		if len(args) < 2 {
			return nil, core.BadArgs(method, "want (key, value)")
		}
		k, _ := args[0].(string)
		v, _ := args[1].(int64)
		s.m[k] = v
		return []any{v}, nil
	case "incr":
		if len(args) < 1 {
			return nil, core.BadArgs(method, "want (key)")
		}
		k, _ := args[0].(string)
		s.m[k]++
		return []any{s.m[k]}, nil
	default:
		return nil, core.NoSuchMethod(method)
	}
}

// Snapshot implements the state-capture half of StateMachine/Migratable.
func (s *KV) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return codec.Marshal(s.m)
}

// Restore implements the state-restore half of StateMachine/Migratable.
func (s *KV) Restore(data []byte) error {
	var m map[string]int64
	if err := codec.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("bench: restore KV: %w", err)
	}
	if m == nil {
		m = make(map[string]int64)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = m
	return nil
}

// Get reads a key directly (test assertions on the authoritative copy).
func (s *KV) Get(k string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

// Len reports how many keys the store holds.
func (s *KV) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Keys implements the enumeration half of shard.Store.
func (s *KV) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ExportKeys implements shard.Store: per-key handoff blobs.
func (s *KV) ExportKeys(keys []string) (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok := s.m[k]; ok {
			b, err := codec.Marshal(v)
			if err != nil {
				return nil, err
			}
			out[k] = b
		}
	}
	return out, nil
}

// ImportKeys implements shard.Store (idempotent: overwrites).
func (s *KV) ImportKeys(kvs map[string][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, b := range kvs {
		var v int64
		if err := codec.Unmarshal(b, &v); err != nil {
			return fmt.Errorf("bench: import key %q: %w", k, err)
		}
		s.m[k] = v
	}
	return nil
}

// DropKeys implements shard.Store (idempotent).
func (s *KV) DropKeys(keys []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		delete(s.m, k)
	}
	return nil
}
