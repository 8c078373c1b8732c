package shard

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Proxy is the client-side sharded proxy: it holds a fetched copy of
// the routing table, sends each single-key invocation straight to the
// owning member (through that member's own proxy — stub or replica),
// and splits multi-key operations into one batch per owning member,
// sent in parallel. A core.CodeMisroute refusal means the table went
// stale under it: it refetches from the router and re-routes, invisibly
// to the caller.
type Proxy struct {
	rt     *core.Runtime
	ref    codec.Ref
	ctrl   wire.ObjAddr
	spec   Spec
	single map[string]bool
	limit  int
	closed atomic.Bool

	mu      sync.Mutex
	epoch   uint64
	ring    *Ring
	members map[string]codec.Ref

	routeCalls   *obs.Counter
	misroutes    *obs.Counter
	scatterCalls *obs.Counter
	fanout       *obs.Histogram
}

func newProxy(rt *core.Runtime, ref codec.Ref, h shardHint) *Proxy {
	scope := "shard[" + h.Name + "]."
	reg := rt.Observer().Registry
	limit := h.ScatterLimit
	if limit <= 0 {
		limit = 8
	}
	return &Proxy{
		rt:           rt,
		ref:          ref,
		ctrl:         wire.ObjAddr{Addr: ref.Target.Addr, Object: h.Ctrl},
		spec:         h.Spec,
		single:       h.Spec.singleSet(),
		limit:        limit,
		routeCalls:   reg.Counter(scope + "route.calls"),
		misroutes:    reg.Counter(scope + "route.misroutes"),
		scatterCalls: reg.Counter(scope + "scatter.calls"),
		fanout:       reg.Histogram(scope + "scatter.fanout"),
	}
}

// Epoch reports the table epoch this proxy last fetched (0 before the
// first route).
func (p *Proxy) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// Invoke implements core.Proxy.
func (p *Proxy) Invoke(ctx context.Context, method string, args ...any) ([]any, error) {
	if p.closed.Load() {
		return nil, core.ErrProxyClosed
	}
	if isReserved(method) {
		return nil, core.Errorf(core.CodeDenied, method, "shard: reserved method")
	}
	if single, ok := p.spec.singleFor(method); ok {
		p.scatterCalls.Inc()
		p.fanout.Observe(time.Duration(len(args)))
		if _, traced := obs.SpanFromContext(ctx); !traced {
			return scatter(ctx, p, method, single, args, p.limit) // spares the span name's garbage
		}
		ctx, finish := p.rt.Tracer().StartChild(ctx, "shard:scatter:"+method, p.rt.Where())
		res, err := scatter(ctx, p, method, single, args, p.limit)
		finish(err)
		return res, err
	}
	if !p.single[method] {
		return nil, core.NoSuchMethod(method)
	}
	key, err := keyOf(method, args)
	if err != nil {
		return nil, err
	}
	ctx, finish := p.rt.Tracer().StartChild(ctx, "shard:route", p.rt.Where())
	res, err := routeKey(ctx, p, method, key, args)
	finish(err)
	return res, err
}

// routeTable implements owners: the cached table, refetched from the
// router first when refresh is set.
func (p *Proxy) routeTable(ctx context.Context, refresh bool) (*Ring, map[string]codec.Ref, error) {
	if refresh {
		if err := p.refreshTable(ctx); err != nil {
			return nil, nil, err
		}
	}
	return p.table(ctx)
}

// callOwner implements owners: one sub-invocation through the member's
// proxy.
func (p *Proxy) callOwner(ctx context.Context, _ string, ref codec.Ref, method string, args []any) ([]any, error) {
	p.routeCalls.Inc()
	mp, err := p.rt.Import(ref)
	if err != nil {
		return nil, err
	}
	return mp.Invoke(ctx, method, args...)
}

// ownerScore implements owners.
func (p *Proxy) ownerScore(ref codec.Ref) float64 {
	return p.rt.HealthScore(ref.Target.Addr.Node)
}

// misrouted implements owners.
func (p *Proxy) misrouted() { p.misroutes.Inc() }

// authoritative implements owners: the proxy holds a fetched copy.
func (p *Proxy) authoritative() bool { return false }

// table returns the cached routing table, fetching it on first use.
func (p *Proxy) table(ctx context.Context) (*Ring, map[string]codec.Ref, error) {
	p.mu.Lock()
	if p.ring != nil {
		ring, members := p.ring, p.members
		p.mu.Unlock()
		return ring, members, nil
	}
	p.mu.Unlock()
	if err := p.refreshTable(ctx); err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ring == nil {
		return nil, nil, ErrNoMembers
	}
	return p.ring, p.members, nil
}

// refreshTable fetches the current table from the router's control
// object. The fetch travels high-priority: re-routing around a shed
// (or misrouted) key needs the table, so shedding table fetches behind
// the load that caused them would wedge recovery.
func (p *Proxy) refreshTable(ctx context.Context) error {
	f, err := p.rt.GuardedCall(ctx, p.ctrl, kindTable, wire.AppendPriorityHeader(nil, wire.PriorityHigh))
	if err != nil {
		return core.RemoteToInvokeError("shard.table", err)
	}
	epoch, vnodes, names, refs, err := decodeTable(f.Payload)
	if err != nil {
		return core.Errorf(core.CodeInternal, "shard.table", "shard: bad table: %s", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch < p.epoch {
		return nil // raced with a newer fetch
	}
	p.epoch = epoch
	if len(names) == 0 {
		p.ring, p.members = nil, nil
		return nil
	}
	p.ring = NewRing(names, vnodes)
	p.members = refs
	return nil
}

func decodeTable(src []byte) (uint64, int, []string, map[string]codec.Ref, error) {
	epoch, n, err := wire.Uvarint(src)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	src = src[n:]
	vnodes, n, err := wire.Uvarint(src)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	src = src[n:]
	count, n, err := wire.Uvarint(src)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	src = src[n:]
	if count > uint64(len(src)) {
		return 0, 0, nil, nil, codec.ErrElementCount
	}
	names := make([]string, 0, count)
	refs := make(map[string]codec.Ref, count)
	for i := uint64(0); i < count; i++ {
		name, n, err := wire.String(src)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		src = src[n:]
		ref, n, err := codec.DecodeRef(src)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		src = src[n:]
		names = append(names, name)
		refs[name] = ref
	}
	return epoch, int(vnodes), names, refs, nil
}

// Ref implements core.Proxy.
func (p *Proxy) Ref() codec.Ref { return p.ref }

// Close implements core.Proxy. Member proxies are shared through the
// runtime's import cache, so closing the shard proxy leaves them alone.
func (p *Proxy) Close() error {
	if p.closed.CompareAndSwap(false, true) {
		p.rt.ForgetProxy(p.ref.Target)
	}
	return nil
}

// Stats reports how many sub-invocations were sent to members (single
// keys and owner batches, re-routes included) and how many keys members
// refused as misrouted. The counters live in the metrics registry, so
// they are deployment-wide per runtime.
func (p *Proxy) Stats() (routes, misroutes uint64) {
	return p.routeCalls.Load(), p.misroutes.Load()
}
