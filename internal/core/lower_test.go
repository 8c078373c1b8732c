package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/kernel"
)

// plainArgs is a multi-key-shaped argument vector of plain data: key
// vectors, nested lists and a map, nothing that needs lowering.
func plainArgs() []any {
	return []any{
		[]any{"a", []any{"b", int64(1)}, []any{"c", []byte("v"), map[string]any{"n": 2.5}}},
		"d",
		int64(3),
	}
}

// TestAllocBudgetLowerArgs: plain data passes through lowering as is —
// the vector and every list inside it — and costs no allocation.
func TestAllocBudgetLowerArgs(t *testing.T) {
	w := newWorld(t, 1)
	rt := w.runtimes[0]
	in := plainArgs()
	out, err := rt.LowerArgs(in)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &in[0] {
		t.Fatal("LowerArgs copied a plain vector")
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := rt.LowerArgs(in); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("lowering plain nested lists allocates %.1f/op, budget is 0", allocs)
	}
}

// TestLowerArgsNestedProxy: a proxy anywhere inside a list or map is
// lowered to its Ref in a copy; the input is untouched, and plain
// siblings are shared, not copied.
func TestLowerArgsNestedProxy(t *testing.T) {
	w := newWorld(t, 2)
	ref, err := w.runtimes[0].Export(&counter{}, "Counter")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.runtimes[1].Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	plain := []any{"x", int64(1)}
	in := []any{[]any{"k", p, plain}, map[string]any{"obj": p, "n": int64(2)}}
	out, err := w.runtimes[1].LowerArgs(in)
	if err != nil {
		t.Fatal(err)
	}
	list := out[0].([]any)
	if got, ok := list[1].(codec.Ref); !ok || got.Target != ref.Target {
		t.Errorf("proxy in a list lowered to %v, want its Ref", list[1])
	}
	if sib := list[2].([]any); &sib[0] != &plain[0] {
		t.Error("a plain list beside a proxy was copied")
	}
	m := out[1].(map[string]any)
	if got, ok := m["obj"].(codec.Ref); !ok || got.Target != ref.Target {
		t.Errorf("proxy in a map lowered to %v, want its Ref", m["obj"])
	}
	if m["n"] != int64(2) {
		t.Errorf("map sibling = %v, want 2", m["n"])
	}
	if _, still := in[0].([]any)[1].(Proxy); !still {
		t.Error("LowerArgs mutated its input")
	}
	// A bare service that was never exported cannot be lowered.
	if _, err := w.runtimes[1].LowerArgs([]any{[]any{ServiceFunc(func(context.Context, string, []any) ([]any, error) {
		return nil, nil
	})}}); !errors.Is(err, ErrNotExported) {
		t.Errorf("unexported service lowered: %v", err)
	}
}

// TestLowerArgsTooDeep: nesting past codec.MaxDepth is refused, whether
// the data is plain or not.
func TestLowerArgsTooDeep(t *testing.T) {
	w := newWorld(t, 1)
	deep := func(n int, leaf any) any {
		v := leaf
		for i := 0; i < n; i++ {
			v = []any{v}
		}
		return v
	}
	m := map[string]any{"deep": deep(codec.MaxDepth, int64(1))}
	for name, v := range map[string]any{
		"list": deep(codec.MaxDepth+1, int64(1)),
		"map":  m,
	} {
		if _, err := w.runtimes[0].LowerArgs([]any{v}); !errors.Is(err, codec.ErrTooDeep) {
			t.Errorf("%s: err = %v, want ErrTooDeep", name, err)
		}
	}
	// At exactly MaxDepth the data is still lowerable, and passes as is.
	ok := []any{deep(codec.MaxDepth, int64(1))}
	out, err := w.runtimes[0].LowerArgs(ok)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &ok[0] {
		t.Error("lowering copied plain data at the depth limit")
	}
}

// TestContextWithSessionClears: a zero sid removes a carried identity,
// and leaves an unstamped ctx as it is.
func TestContextWithSessionClears(t *testing.T) {
	base := context.Background()
	if ContextWithSession(base, 0, 0) != base {
		t.Error("clearing an unstamped ctx derived a new one")
	}
	stamped := ContextWithSession(base, 7, 9)
	if sid, seq := SessionFromContext(stamped); sid != 7 || seq != 9 {
		t.Fatalf("stamped identity = (%d, %d), want (7, 9)", sid, seq)
	}
	if sid, seq := SessionFromContext(ContextWithSession(stamped, 0, 0)); sid != 0 || seq != 0 {
		t.Errorf("cleared identity = (%d, %d), want none", sid, seq)
	}
}

// sessionProbe records the identity each invocation arrived with.
type sessionProbe struct {
	mu   sync.Mutex
	seen [][2]uint64
}

func (s *sessionProbe) Invoke(ctx context.Context, _ string, _ []any) ([]any, error) {
	sid, seq := SessionFromContext(ctx)
	s.mu.Lock()
	s.seen = append(s.seen, [2]uint64{sid, seq})
	s.mu.Unlock()
	return nil, nil
}

// TestStubSessionStamping: under WithSessions a stub mints one identity
// per invocation, keeps one a caller stamped, and mints afresh when a
// layer above cleared the caller's.
func TestStubSessionStamping(t *testing.T) {
	w := newWorld(t, 1)
	ep, err := w.net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	node := kernel.NewNode(ep)
	t.Cleanup(func() { node.Close() })
	ktx, err := node.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	cli := NewRuntime(ktx, WithSessions())
	if w.runtimes[0].Sessions() != nil || cli.Sessions() == nil {
		t.Fatal("Sessions() must be set exactly on the WithSessions runtime")
	}
	probe := &sessionProbe{}
	ref, err := w.runtimes[0].Export(probe, "Probe")
	if err != nil {
		t.Fatal(err)
	}
	p, err := cli.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	stamped := ContextWithSession(context.Background(), 42, 7)
	for _, ctx := range []context.Context{context.Background(), context.Background(), stamped, ContextWithSession(stamped, 0, 0)} {
		if _, err := p.Invoke(ctx, "touch"); err != nil {
			t.Fatal(err)
		}
	}
	sid := cli.Sessions().SID()
	want := [][2]uint64{{sid, 1}, {sid, 2}, {42, 7}, {sid, 3}}
	if len(probe.seen) != len(want) {
		t.Fatalf("seen %v, want %v", probe.seen, want)
	}
	for i := range want {
		if probe.seen[i] != want[i] {
			t.Errorf("invocation %d arrived as %v, want %v", i, probe.seen[i], want[i])
		}
	}
}
