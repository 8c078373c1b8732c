package replica

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// TypeName is the proxy type the replica status service exports under.
// Like health.Service it has no custom factory: proxyctl reaches it
// through a plain stub.
const TypeName = "replica.Status"

// GroupStatus is one replica group's view from one runtime: either the
// primary's (authoritative membership) or a replica proxy's (its own
// position and who it believes the primary is).
type GroupStatus struct {
	Name    string
	Role    string // "primary" or "replica"
	Epoch   uint64
	Seq     uint64 // primary: sequence high-water mark; replica: applied seq
	Primary string // control-object address
	Members []MemberStatus
}

// MemberStatus is a primary's record of one member's acknowledged
// position.
type MemberStatus struct {
	Member string
	Acked  uint64
}

// statusSource is implemented by primaries and replica proxies; each
// export/import registers itself so the runtime's status service can
// enumerate live groups.
type statusSource interface {
	groupStatus() GroupStatus
}

var (
	statusMu  sync.Mutex
	statusReg = map[*core.Runtime][]statusSource{}
)

// registerStatus lists s under rt until s unregisters (a replica proxy
// closing) or rt's node closes (which ends primaries too). The registry
// is package state keyed by runtime, so without the drop at node close it
// would keep every closed runtime — and all it references — reachable.
func registerStatus(rt *core.Runtime, s statusSource) {
	statusMu.Lock()
	entries, known := statusReg[rt]
	statusReg[rt] = append(entries, s)
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

// unregisterStatus removes s. The runtime's key stays until its node
// closes, so the close hook is installed once per runtime.
func unregisterStatus(rt *core.Runtime, s statusSource) {
	statusMu.Lock()
	defer statusMu.Unlock()
	entries := statusReg[rt]
	for i, e := range entries {
		if e == s {
			statusReg[rt] = append(entries[:i], entries[i+1:]...)
			break
		}
	}
}

// Status reports every replica group this runtime participates in.
func Status(rt *core.Runtime) []GroupStatus {
	statusMu.Lock()
	entries := append([]statusSource(nil), statusReg[rt]...)
	statusMu.Unlock()
	out := make([]GroupStatus, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.groupStatus())
	}
	return out
}

func (p *primary) groupStatus() GroupStatus {
	seqs := p.seq.MemberSeqs()
	members := make([]MemberStatus, 0, len(seqs))
	for m, acked := range seqs {
		members = append(members, MemberStatus{Member: m.String(), Acked: acked})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Member < members[j].Member })
	p.mu.Lock()
	role := "primary"
	if p.deposed {
		role = "deposed"
	}
	p.mu.Unlock()
	return GroupStatus{
		Name:    p.name,
		Role:    role,
		Epoch:   p.seq.Epoch(),
		Seq:     p.seq.Seq(),
		Primary: fmt.Sprintf("%s/%d", p.rt.Addr(), p.id),
		Members: members,
	}
}

func (p *Proxy) groupStatus() GroupStatus {
	p.mu.Lock()
	prim := p.prim
	epoch, ctrl := p.epoch, p.ctrl
	p.mu.Unlock()
	if prim != nil {
		// Promoted: report the primary's authoritative view.
		return prim.groupStatus()
	}
	return GroupStatus{
		Name:    p.f.name,
		Role:    "replica",
		Epoch:   epoch,
		Seq:     p.appliedSeq.Load(),
		Primary: ctrl.String(),
	}
}

// Service exposes the runtime's replica groups over the ordinary
// invocation conventions so proxyctl can inspect membership, epochs, and
// per-member positions.
//
// Methods:
//
//	groups() -> text table of every group this runtime participates in
type Service struct {
	rt *core.Runtime
}

// ServiceOption configures a Service. None are defined yet; the
// parameter exists so future knobs never break call sites — see doc.go,
// constructor options.
type ServiceOption func(*Service)

// NewService builds the status service for one runtime.
func NewService(rt *core.Runtime, opts ...ServiceOption) *Service {
	s := &Service{rt: rt}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Invoke dispatches the status methods.
func (s *Service) Invoke(_ context.Context, method string, args []any) ([]any, error) {
	switch method {
	case "groups":
		groups := Status(s.rt)
		var b strings.Builder
		fmt.Fprintf(&b, "%-10s %-8s %-6s %-6s %s\n", "GROUP", "ROLE", "EPOCH", "SEQ", "PRIMARY")
		for _, g := range groups {
			fmt.Fprintf(&b, "%-10s %-8s %-6d %-6d %s\n", g.Name, g.Role, g.Epoch, g.Seq, g.Primary)
			for _, m := range g.Members {
				fmt.Fprintf(&b, "  member %-20s acked=%d\n", m.Member, m.Acked)
			}
		}
		if len(groups) == 0 {
			b.WriteString("(no replica groups)\n")
		}
		return []any{b.String()}, nil
	default:
		return nil, core.NoSuchMethod(method)
	}
}
