package shard

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/codec"
	"repro/internal/core"
)

// TypeName is the proxy type the shard status service exports under.
// Like health.Service it has no custom factory: proxyctl reaches it
// through a plain stub.
const TypeName = "shard.Status"

var (
	statusMu  sync.Mutex
	statusReg = map[*core.Runtime][]*Router{}
)

// registerStatus lists r under rt until rt's node closes. The registry is
// package state keyed by runtime, so without that drop it would keep every
// closed runtime — and all it references — reachable.
func registerStatus(rt *core.Runtime, r *Router) {
	statusMu.Lock()
	entries, known := statusReg[rt]
	for _, e := range entries {
		if e == r {
			statusMu.Unlock()
			return
		}
	}
	statusReg[rt] = append(entries, r)
	statusMu.Unlock()
	if !known {
		rt.Kernel().Node().OnClose(func() { dropStatus(rt) })
	}
}

func dropStatus(rt *core.Runtime) {
	statusMu.Lock()
	defer statusMu.Unlock()
	delete(statusReg, rt)
}

// Routers reports every shard router exported from this runtime.
func Routers(rt *core.Runtime) []*Router {
	statusMu.Lock()
	defer statusMu.Unlock()
	return append([]*Router(nil), statusReg[rt]...)
}

func routerByName(rt *core.Runtime, name string) (*Router, bool) {
	for _, r := range Routers(rt) {
		if r.Name() == name {
			return r, true
		}
	}
	return nil, false
}

// ServiceOption configures a Service. None are defined yet; the
// parameter exists so future knobs never break call sites — see doc.go,
// constructor options.
type ServiceOption func(*Service)

// Service exposes a runtime's shard deployments over the ordinary
// invocation conventions, so proxyctl can inspect tables and change
// membership.
//
// Methods:
//
//	status() -> text table of every deployment's epoch and members
//	add(shard, member, ref) -> admit an exported member and rebalance
//	remove(shard, member, force) -> retire a member and rebalance
type Service struct {
	rt *core.Runtime
}

// NewService builds the shard control service for one runtime.
func NewService(rt *core.Runtime, opts ...ServiceOption) *Service {
	s := &Service{rt: rt}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Invoke dispatches the control methods.
func (s *Service) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	switch method {
	case "status":
		routers := Routers(s.rt)
		var b strings.Builder
		fmt.Fprintf(&b, "%-10s %-6s %-8s %s\n", "SHARD", "EPOCH", "MEMBERS", "KEYS")
		for _, r := range routers {
			epoch, ring, members := r.table()
			names := make([]string, 0, len(members))
			for n := range members {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Fprintf(&b, "%-10s %-6d %-8d %s\n", r.Name(), epoch, len(members), "")
			for _, n := range names {
				owned := "-"
				if ring != nil && ring.Has(n) {
					owned = "on-ring"
				}
				fmt.Fprintf(&b, "  member %-10s %-8s keys=%d  %s\n", n, owned,
					r.keysGauge(n).Load(), members[n].Target)
			}
		}
		if len(routers) == 0 {
			b.WriteString("(no shard deployments)\n")
		}
		return []any{b.String()}, nil
	case "add":
		if len(args) < 3 {
			return nil, core.BadArgs(method, "want (shard, member, ref)")
		}
		shardName, _ := args[0].(string)
		member, _ := args[1].(string)
		if shardName == "" || member == "" {
			return nil, core.BadArgs(method, "shard and member must be strings")
		}
		ref, err := refArg(method, args[2])
		if err != nil {
			return nil, err
		}
		r, ok := routerByName(s.rt, shardName)
		if !ok {
			return nil, core.Errorf(core.CodeBadArgs, method, "no shard deployment %q", shardName)
		}
		if err := r.AddMember(ctx, member, ref); err != nil {
			return nil, core.Errorf(core.CodeApp, method, "%s", err)
		}
		return []any{fmt.Sprintf("added %s (epoch %d)", member, r.Epoch())}, nil
	case "remove":
		if len(args) < 2 {
			return nil, core.BadArgs(method, "want (shard, member[, force])")
		}
		shardName, _ := args[0].(string)
		member, _ := args[1].(string)
		force := false
		if len(args) > 2 {
			force, _ = args[2].(bool)
		}
		r, ok := routerByName(s.rt, shardName)
		if !ok {
			return nil, core.Errorf(core.CodeBadArgs, method, "no shard deployment %q", shardName)
		}
		if err := r.RemoveMember(ctx, member, force); err != nil {
			return nil, core.Errorf(core.CodeApp, method, "%s", err)
		}
		return []any{fmt.Sprintf("removed %s (epoch %d)", member, r.Epoch())}, nil
	default:
		return nil, core.NoSuchMethod(method)
	}
}

// refArg accepts a member reference however it arrived: as a raw Ref
// (local call) or as the proxy the decoder installed for an inbound Ref.
func refArg(method string, v any) (codec.Ref, error) {
	switch x := v.(type) {
	case codec.Ref:
		return x, nil
	case core.Proxy:
		return x.Ref(), nil
	default:
		return codec.Ref{}, core.BadArgs(method, fmt.Sprintf("member ref must be a reference, got %T", v))
	}
}
