package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/wire"
)

// fakeOwners drives scatter without a network: the table is a fixed
// ring, and each batch goes to call (by default straight into the
// owner's in-process Guard, as a bypass proxy would).
type fakeOwners struct {
	ring   *Ring
	refs   map[string]codec.Ref
	guards map[string]*Guard
	call   func(ctx context.Context, owner, method string, elems []any) ([]any, error)
	// copied makes the fake a fetched copy of the table (as the Proxy
	// holds) rather than its authority; emptyFetches is then how many
	// fetches find no members before the ring appears.
	copied       bool
	emptyFetches int

	mu        sync.Mutex
	batches   map[string]int // batches per owner
	misroutes atomic.Int64
}

// newFakeOwners builds n members m0..m<n-1>, each a Guard over its own
// kvStore holding the committed table (epoch 1).
func newFakeOwners(t *testing.T, n int) *fakeOwners {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("m%d", i)
	}
	f := &fakeOwners{
		ring:    NewRing(names, 16),
		refs:    make(map[string]codec.Ref, n),
		guards:  make(map[string]*Guard, n),
		batches: make(map[string]int),
	}
	for i, name := range names {
		f.refs[name] = codec.Ref{Target: wire.ObjAddr{Addr: wire.Addr{Node: wire.NodeID(i + 1), Context: 1}, Object: 1}}
		g := NewGuard(name, testSpec, newKVStore())
		commitTable(t, g, 1, names...)
		f.guards[name] = g
	}
	return f
}

func (f *fakeOwners) routeTable(context.Context, bool) (*Ring, map[string]codec.Ref, error) {
	f.mu.Lock()
	empty := f.emptyFetches > 0
	f.emptyFetches--
	f.mu.Unlock()
	if f.ring == nil || empty {
		return nil, nil, ErrNoMembers
	}
	return f.ring, f.refs, nil
}

func (f *fakeOwners) callOwner(ctx context.Context, owner string, _ codec.Ref, method string, args []any) ([]any, error) {
	elems, ok := args[0].([]any)
	if !ok { // a single-key invocation
		return f.guards[owner].Invoke(ctx, method, args)
	}
	f.mu.Lock()
	f.batches[owner]++
	f.mu.Unlock()
	if f.call != nil {
		return f.call(ctx, owner, method, elems)
	}
	return f.guards[owner].Invoke(ctx, method, []any{elems})
}

func (f *fakeOwners) ownerScore(codec.Ref) float64 { return 0 }
func (f *fakeOwners) misrouted()                   { f.misroutes.Add(1) }
func (f *fakeOwners) authoritative() bool          { return !f.copied }

// put stores k=v at k's owner.
func (f *fakeOwners) put(t *testing.T, k string, v int64) {
	t.Helper()
	if _, err := f.guards[f.ring.Owner(k)].Invoke(context.Background(), "put", []any{k, v}); err != nil {
		t.Fatal(err)
	}
}

func TestScatterGatherPartialFailureMerge(t *testing.T) {
	f := newFakeOwners(t, 3)
	for k, v := range map[string]int64{"a": 1, "b": 2, "c": 3} {
		f.put(t, k, v)
	}
	args := []any{
		"a",
		"bad-1",
		[]any{"b", int64(7)}, // key vector: extra args ride along
		"bad-2",
		"c",
	}
	out, err := scatter(context.Background(), f, "mfail", "fail", args, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(args) {
		t.Fatalf("result length %d, want %d", len(out), len(args))
	}
	// Successful slots align with their arguments.
	for i, want := range map[int]int64{0: 1, 2: 2, 4: 3} {
		if out[i] != want {
			t.Errorf("out[%d] = %v, want %d", i, out[i], want)
		}
	}
	// Failed slots carry KeyErrors naming their key, preserving the code.
	for i, wantKey := range map[int]string{1: "bad-1", 3: "bad-2"} {
		ke, ok := out[i].(*KeyError)
		if !ok {
			t.Fatalf("out[%d] = %T, want *KeyError", i, out[i])
		}
		if ke.Key != wantKey {
			t.Errorf("out[%d].Key = %q, want %q", i, ke.Key, wantKey)
		}
		var ie *core.InvokeError
		if !errors.As(ke, &ie) || ie.Code != core.CodeApp || ie.Method != "fail" {
			t.Errorf("out[%d] does not unwrap to the store's CodeApp failure: %v", i, ke)
		}
	}
	// One batch per owner, never one call per key.
	owners := map[string]bool{}
	for _, a := range args {
		k, _, _ := splitElem("", a)
		owners[f.ring.Owner(k)] = true
	}
	for o, n := range f.batches {
		if n != 1 {
			t.Errorf("owner %s got %d batches, want 1", o, n)
		}
	}
	if len(f.batches) != len(owners) {
		t.Errorf("%d owners called, want %d", len(f.batches), len(owners))
	}
}

// TestScatterGatherBoundedConcurrency pins WithScatterLimit's meaning:
// it bounds owner batches in flight, the caller's own included.
func TestScatterGatherBoundedConcurrency(t *testing.T) {
	const limit = 3
	f := newFakeOwners(t, 12)
	var inflight, peak atomic.Int64
	f.call = func(_ context.Context, _, _ string, elems []any) ([]any, error) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return []any{append([]any(nil), elems...)}, nil
	}
	args := make([]any, 40)
	owners := map[string]bool{}
	for i := range args {
		k := fmt.Sprintf("k%d", i)
		args[i] = k
		owners[f.ring.Owner(k)] = true
	}
	out, err := scatter(context.Background(), f, "mget", "get", args, limit)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != args[i] {
			t.Fatalf("out[%d] = %v, want %v (results misaligned)", i, v, args[i])
		}
	}
	if p := peak.Load(); p > limit {
		t.Errorf("peak in-flight batches = %d, want <= %d", p, limit)
	}
	if p := peak.Load(); p == 0 {
		t.Error("no sub-invocations ran")
	}
	if len(f.batches) != len(owners) {
		t.Errorf("%d owners called, want one batch to each of %d", len(f.batches), len(owners))
	}
}

func TestScatterGatherBadArgs(t *testing.T) {
	f := newFakeOwners(t, 2)
	cases := []struct {
		name string
		args []any
	}{
		{"non-key argument", []any{int64(3)}},
		{"empty key vector", []any{[]any{}}},
		{"vector with non-string key", []any{[]any{int64(1), "x"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := scatter(context.Background(), f, "mput", "put", tc.args, 4)
			invokeCode(t, err, core.CodeBadArgs)
		})
	}
	if len(f.batches) != 0 {
		t.Errorf("malformed arguments reached members: %v", f.batches)
	}
}

func TestScatterGatherEmptyResultSlot(t *testing.T) {
	f := newFakeOwners(t, 2)
	f.call = func(_ context.Context, _, _ string, elems []any) ([]any, error) {
		return []any{make([]any, len(elems))}, nil
	}
	out, err := scatter(context.Background(), f, "mput", "put", []any{"a", "b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != nil {
			t.Errorf("out[%d] = %v, want nil for empty sub-result", i, v)
		}
	}
}

// TestScatterMalformedBatchReply: a reply that does not hold one result
// per element fails every key of that batch, without re-routing.
func TestScatterMalformedBatchReply(t *testing.T) {
	f := newFakeOwners(t, 1)
	f.call = func(context.Context, string, string, []any) ([]any, error) {
		return []any{[]any{int64(1)}}, nil
	}
	out, err := scatter(context.Background(), f, "mget", "get", []any{"a", "b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		ke, ok := v.(*KeyError)
		if !ok {
			t.Fatalf("out[%d] = %v, want a KeyError", i, v)
		}
		var ie *core.InvokeError
		if !errors.As(ke, &ie) || ie.Code != core.CodeInternal {
			t.Errorf("out[%d] = %v, want CodeInternal", i, ke)
		}
	}
	if f.batches["m0"] != 1 {
		t.Errorf("m0 got %d batches, want 1", f.batches["m0"])
	}
}

// TestScatterResendsOnlyRetryableKeys: keys an owner refuses as
// misrouted are regrouped under the refreshed table and resent alone;
// keys that already answered are not sent again.
func TestScatterResendsOnlyRetryableKeys(t *testing.T) {
	f := newFakeOwners(t, 2)
	keys := []string{ownedKey(t, f.ring, "m0"), notOwnedKey(t, f.ring, "m0")}
	f.put(t, keys[0], 10)
	f.put(t, keys[1], 20)
	sent := map[string]int{}
	var first atomic.Bool
	f.call = func(ctx context.Context, owner, method string, elems []any) ([]any, error) {
		f.mu.Lock()
		for _, e := range elems {
			sent[e.(string)]++
		}
		f.mu.Unlock()
		if owner == "m1" && first.CompareAndSwap(false, true) {
			// A stale table sends m1's key the wrong way once.
			return []any{[]any{(&KeyError{Key: elems[0].(string), Err: core.Errorf(core.CodeMisroute, method, "stale")}).lower()}}, nil
		}
		return f.guards[owner].Invoke(ctx, method, []any{elems})
	}
	out, err := scatter(context.Background(), f, "mget", "get", []any{keys[0], keys[1]}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != int64(10) || out[1] != int64(20) {
		t.Fatalf("out = %v, want [10 20]", out)
	}
	if sent[keys[0]] != 1 || sent[keys[1]] != 2 {
		t.Errorf("sends per key = %v, want the answered key once and the misrouted key twice", sent)
	}
	if f.misroutes.Load() != 1 {
		t.Errorf("misroutes = %d, want 1", f.misroutes.Load())
	}
}

// TestScatterTransportFailureExhaustsAttempts: a batch that never
// reaches its owner is retried within routeAttempts, then each of its
// keys fails with the transport error in its own slot.
func TestScatterTransportFailureExhaustsAttempts(t *testing.T) {
	f := newFakeOwners(t, 1)
	lost := errors.New("connection lost")
	f.call = func(context.Context, string, string, []any) ([]any, error) { return nil, lost }
	out, err := scatter(context.Background(), f, "mget", "get", []any{"a", "b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		ke, ok := v.(*KeyError)
		if !ok || !errors.Is(ke, lost) {
			t.Errorf("out[%d] = %v, want a KeyError wrapping the transport error", i, v)
		}
	}
	if n := f.batches["m0"]; n != routeAttempts {
		t.Errorf("m0 got %d batches, want %d", n, routeAttempts)
	}
}

// TestRouteNoMembersFailsAtOnce: with an empty authoritative table there
// is nothing to re-route to, so single keys and multi-key slots fail
// without backoff.
func TestRouteNoMembersFailsAtOnce(t *testing.T) {
	f := newFakeOwners(t, 1)
	f.ring = nil
	start := time.Now()
	if _, err := routeKey(context.Background(), f, "get", "a", []any{"a"}); !errors.Is(err, ErrNoMembers) {
		t.Errorf("routeKey = %v, want ErrNoMembers", err)
	}
	out, err := scatter(context.Background(), f, "mget", "get", []any{"a", "b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if ke, ok := v.(*KeyError); !ok || !errors.Is(ke, ErrNoMembers) {
			t.Errorf("out[%d] = %v, want a KeyError wrapping ErrNoMembers", i, v)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("failing on an empty table took %v; it backed off", d)
	}
}

// TestRouteNoMembersRefetchesCopy: an empty fetched copy may only mean
// the first member is still being admitted, so single keys and
// multi-key operations refetch it and go through once members appear.
func TestRouteNoMembersRefetchesCopy(t *testing.T) {
	f := newFakeOwners(t, 2)
	f.copied = true
	f.put(t, "a", 1)
	f.put(t, "b", 2)
	f.emptyFetches = 2
	res, err := routeKey(context.Background(), f, "get", "a", []any{"a"})
	if err != nil || len(res) != 1 || res[0] != int64(1) {
		t.Errorf("routeKey = %v, %v; want [1]", res, err)
	}
	f.emptyFetches = 2
	out, err := scatter(context.Background(), f, "mget", "get", []any{"a", "b"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != int64(1) || out[1] != int64(2) {
		t.Errorf("scatter = %v, want [1 2]", out)
	}
	// A copy that stays empty fails with ErrNoMembers once the attempts
	// run out.
	f.emptyFetches = routeAttempts
	if _, err := routeKey(context.Background(), f, "get", "a", []any{"a"}); !errors.Is(err, ErrNoMembers) {
		t.Errorf("routeKey on a copy that stays empty = %v, want ErrNoMembers", err)
	}
}
