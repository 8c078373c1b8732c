package replica

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestStatusReportsPrimaryAndReplicas(t *testing.T) {
	w := newRepWorld(t, 2)
	ctx := context.Background()
	p := w.proxy(t, 0)
	if _, err := p.Invoke(ctx, "set", "k", int64(3)); err != nil {
		t.Fatal(err)
	}

	// The primary's runtime reports the group it coordinates, with the
	// member's applied sequence.
	groups := Status(w.server)
	if len(groups) != 1 {
		t.Fatalf("server Status = %d groups, want 1", len(groups))
	}
	g := groups[0]
	if g.Role != "primary" || g.Epoch != 1 || g.Seq != 1 {
		t.Fatalf("primary status = %+v", g)
	}
	if len(g.Members) != 1 || g.Members[0].Acked != 1 {
		t.Fatalf("primary members = %+v", g.Members)
	}

	// A replica's runtime reports its own applied position and who it
	// believes the primary is.
	groups = Status(w.clients[0])
	if len(groups) != 1 {
		t.Fatalf("client Status = %d groups, want 1", len(groups))
	}
	g = groups[0]
	if g.Role != "replica" || g.Seq != 1 || g.Primary == "" {
		t.Fatalf("replica status = %+v", g)
	}

	// The status service renders the same view as a text table.
	svc := NewService(w.server)
	vals, err := svc.Invoke(ctx, "groups", nil)
	if err != nil {
		t.Fatal(err)
	}
	text, _ := vals[0].(string)
	if !strings.Contains(text, "primary") || !strings.Contains(text, "acked=1") {
		t.Fatalf("groups table:\n%s", text)
	}

	// Proxy.Ref round-trips the imported reference.
	if got := p.Ref(); got.Type != w.ref.Type || got.Target != w.ref.Target {
		t.Fatalf("Ref = %+v, want %+v", got, w.ref)
	}

	if _, err := svc.Invoke(ctx, "nope", nil); err == nil {
		t.Fatal("unknown method succeeded")
	}
}

func TestStatusEmptyRuntime(t *testing.T) {
	w := newRepWorld(t, 1)
	// The extra client never imported anything: no groups registered.
	if groups := Status(w.clients[0]); len(groups) != 0 {
		t.Fatalf("Status on idle runtime = %+v", groups)
	}
	text, err := core.Call1[string](context.Background(), serviceProxy(t, w), "groups")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "no replica groups") {
		t.Fatalf("empty table = %q", text)
	}
}

// serviceProxy exports the status service from an idle runtime and
// invokes it through a plain stub, the same path proxyctl group uses.
func serviceProxy(t *testing.T, w *repWorld) core.Proxy {
	t.Helper()
	ref, err := w.clients[0].Export(NewService(w.clients[0]), TypeName)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.server.Import(ref)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFactoryNameAppearsInStatus(t *testing.T) {
	if f := NewFactory(nil, nil, WithName("orders")); f.name != "orders" {
		t.Fatalf("name = %q", f.name)
	}
}

// TestStatusDroppedAtNodeClose closes a deployment: once proxies and
// nodes are closed, the status registry must hold nothing for either
// runtime — neither the replica proxy (which unregisters on Close) nor
// the primary (which goes with its node) may keep a runtime reachable.
func TestStatusDroppedAtNodeClose(t *testing.T) {
	w := newRepWorld(t, 1)
	w.proxy(t, 0)
	if len(Status(w.server)) != 1 || len(Status(w.clients[0])) != 1 {
		t.Fatalf("before close: server %+v, client %+v", Status(w.server), Status(w.clients[0]))
	}
	for _, rt := range []*core.Runtime{w.clients[0], w.server} {
		rt.CloseProxies()
		_ = rt.Kernel().Node().Close()
	}
	for _, rt := range []*core.Runtime{w.server, w.clients[0]} {
		if groups := Status(rt); len(groups) != 0 {
			t.Errorf("Status after close = %+v", groups)
		}
		statusMu.Lock()
		_, held := statusReg[rt]
		statusMu.Unlock()
		if held {
			t.Errorf("registry still holds runtime %s after its node closed", rt.Addr())
		}
	}
}
