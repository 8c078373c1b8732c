package shard

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/rpc"
	"repro/internal/wire"
)

// FactoryOption configures a Factory.
type FactoryOption func(*Factory)

// WithVirtualNodes sets the ring's per-member virtual-node count
// (default DefaultVirtualNodes). Every runtime of a deployment must
// agree — the value travels in the table, so only the router's matters.
func WithVirtualNodes(n int) FactoryOption {
	return func(f *Factory) {
		if n > 0 {
			f.vnodes = n
		}
	}
}

// WithScatterLimit bounds how many sub-invocations — per-owner batches —
// a multi-key operation has in flight at once (default 8).
func WithScatterLimit(n int) FactoryOption {
	return func(f *Factory) {
		if n > 0 {
			f.scatterLimit = n
		}
	}
}

// WithName labels the deployment in metrics and the shard status
// service (default "shard").
func WithName(name string) FactoryOption {
	return func(f *Factory) { f.name = name }
}

// WithAutoRemove retires members whose node the runtime's health
// monitor (core.WithHealth) declares dead, force-rebalancing their key
// ranges onto the survivors. Meant for plain-export members; leave it
// off for replica-backed members, whose groups fail over by themselves
// and stay routable through a promotion.
func WithAutoRemove() FactoryOption {
	return func(f *Factory) { f.autoRemove = true }
}

// Factory is the sharded proxy factory. The service side constructs it
// with the keyspace Spec; every importing runtime registers the same
// factory (the spec itself travels in the reference hint, so a client
// factory built with a zero Spec still routes correctly).
// Implements core.ProxyFactory.
type Factory struct {
	spec         Spec
	single       map[string]bool
	vnodes       int
	scatterLimit int
	name         string
	autoRemove   bool
}

var _ core.ProxyFactory = (*Factory)(nil)

// NewFactory builds a sharding factory for services with the given
// keyspace spec.
func NewFactory(spec Spec, opts ...FactoryOption) *Factory {
	f := &Factory{
		spec:         spec,
		single:       spec.singleSet(),
		vnodes:       DefaultVirtualNodes,
		scatterLimit: 8,
		name:         "shard",
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Export implements the server half of core.ProxyFactory: the exported
// service must be this deployment's Router. It registers the table
// control object and embeds the routing bootstrap (control id, spec,
// scatter limit) as the reference's private hint.
func (f *Factory) Export(rt *core.Runtime, svc core.Service, ref codec.Ref) (core.Service, []byte, error) {
	r, ok := svc.(*Router)
	if !ok {
		return nil, nil, fmt.Errorf("shard: exported service must be a *shard.Router, got %T", svc)
	}
	srv := rpc.NewServer(rpc.HandlerFunc(func(req *rpc.Request) (wire.Kind, []byte, []byte) {
		if req.Kind != kindTable {
			return 0, nil, core.EncodeInvokeError("", core.Errorf(core.CodeInternal, "", "shard: unexpected kind %v", req.Kind))
		}
		return r.handleTable()(req.Frame.Payload)
	}))
	ctrl := rt.Kernel().Register(srv)
	registerStatus(rt, r)
	if f.autoRemove {
		r.watchHealth()
	}
	h := shardHint{Ctrl: ctrl, Spec: f.spec, ScatterLimit: f.scatterLimit, Name: f.name}
	return nil, h.encode(), nil
}

// New implements core.ProxyFactory: build the routing proxy from the
// reference's hint. The proxy fetches the routing table lazily and
// refreshes it whenever a member fences a misrouted key.
func (f *Factory) New(rt *core.Runtime, ref codec.Ref) (core.Proxy, error) {
	h, err := decodeShardHint(ref.Hint)
	if err != nil {
		return nil, fmt.Errorf("shard: bad hint in %s: %w", ref, err)
	}
	return newProxy(rt, ref, h), nil
}

// shardHint is the private bootstrap blob in a sharded reference.
type shardHint struct {
	Ctrl         wire.ObjectID
	Spec         Spec
	ScatterLimit int
	Name         string
}

func (h shardHint) encode() []byte {
	buf := wire.AppendUvarint(nil, uint64(h.Ctrl))
	buf = wire.AppendUvarint(buf, uint64(h.ScatterLimit))
	buf = wire.AppendString(buf, h.Name)
	buf = wire.AppendUvarint(buf, uint64(len(h.Spec.SingleKey)))
	for _, m := range h.Spec.SingleKey {
		buf = wire.AppendString(buf, m)
	}
	multi := make([]string, 0, len(h.Spec.MultiKey))
	for m := range h.Spec.MultiKey {
		multi = append(multi, m)
	}
	sort.Strings(multi)
	buf = wire.AppendUvarint(buf, uint64(len(multi)))
	for _, m := range multi {
		buf = wire.AppendString(buf, m)
		buf = wire.AppendString(buf, h.Spec.MultiKey[m])
	}
	return buf
}

func decodeShardHint(src []byte) (shardHint, error) {
	var h shardHint
	ctrl, n, err := wire.Uvarint(src)
	if err != nil {
		return h, err
	}
	src = src[n:]
	h.Ctrl = wire.ObjectID(ctrl)
	limit, n, err := wire.Uvarint(src)
	if err != nil {
		return h, err
	}
	src = src[n:]
	h.ScatterLimit = int(limit)
	h.Name, n, err = wire.String(src)
	if err != nil {
		return h, err
	}
	src = src[n:]
	count, n, err := wire.Uvarint(src)
	if err != nil {
		return h, err
	}
	src = src[n:]
	if count > uint64(len(src)) {
		return h, codec.ErrElementCount
	}
	for i := uint64(0); i < count; i++ {
		s, n, err := wire.String(src)
		if err != nil {
			return h, err
		}
		src = src[n:]
		h.Spec.SingleKey = append(h.Spec.SingleKey, s)
	}
	count, n, err = wire.Uvarint(src)
	if err != nil {
		return h, err
	}
	src = src[n:]
	if count > uint64(len(src)) {
		return h, codec.ErrElementCount
	}
	h.Spec.MultiKey = make(map[string]string, count)
	for i := uint64(0); i < count; i++ {
		k, n, err := wire.String(src)
		if err != nil {
			return h, err
		}
		src = src[n:]
		v, n, err := wire.String(src)
		if err != nil {
			return h, err
		}
		src = src[n:]
		h.Spec.MultiKey[k] = v
	}
	return h, nil
}
