package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/session"
	"repro/internal/shard"
	"repro/internal/wire"
)

// node is one kernel node with a single context and runtime, configured
// the way a default proxyd configures its own: trains on, no admission
// control, and on the TCP deployments a failure detector at proxyd's
// default probe interval. The one difference is the rpc client's
// retransmission schedule (see retryOptions).
type node struct {
	id   wire.NodeID
	kn   *kernel.Node
	rt   *core.Runtime
	mon  *health.Monitor // nil on the netsim deployments
	co   *wire.Coalescer
	sess *session.Table // nil unless the deployment dedups sessions
}

// proxyd's failure-detector defaults.
const (
	healthInterval = 2 * time.Second
	grayOutlier    = 3.0
	grayDegrade    = 0.5
	grayIndirect   = 2
)

// retryOptions is the rpc client's retransmission schedule: the default
// one (50 ms base, doubling up to 2 s, 8 attempts) with whole waits. The
// default draws every wait from (0, interval], so one call in 50
// retransmits if its reply is 1 ms late. On stub-fanin8 such a
// retransmission raced its original, and the server handled the second
// copy only after the 128-entry reply cache its client shares with the
// other callers had turned over: the server ran the put again, over the
// caller's newer put, and a later get read the older value. Whole waits
// leave retransmission to replies 50 ms late, which a fault-free run does
// not have. The stub-fanin8-jitter workload keeps the default schedule
// and shows the re-execution.
func retryOptions(jitter bool) []rpc.ClientOption {
	if jitter {
		return nil
	}
	return []rpc.ClientOption{rpc.WithBackoff(2, 2*time.Second), rpc.WithJitter(false)}
}

// newNode stacks a node on ep: probe wrappers (traced runs only) below
// and above the train coalescer, then the kernel, the failure detector
// watching peers (when monitored) and the runtime. jitter keeps the rpc
// client's default full-jitter retransmission waits.
func newNode(ep netsim.Endpoint, monitored bool, peers []wire.NodeID, sessions, jitter bool, p *probe) (*node, error) {
	n := &node{id: ep.LocalNode()}
	if p != nil {
		ep = p.below(ep)
	}
	ce := netsim.Coalesce(ep, wire.CoalescerConfig{})
	n.co = ce.Coalescer()
	var kep netsim.Endpoint = ce
	if p != nil {
		kep = p.above(ce)
	}
	var opts []kernel.NodeOption
	if sessions {
		n.sess = session.NewTable(session.Config{TTL: session.DefaultTTL})
		opts = append(opts, kernel.WithSessions(n.sess))
	}
	n.kn = kernel.NewNode(kep, opts...)
	ktx, err := n.kn.NewContext()
	if err != nil {
		_ = n.kn.Close()
		return nil, fmt.Errorf("node %d context: %w", n.id, err)
	}
	o := obs.NewObserver()
	rtOpts := []core.RuntimeOption{core.WithObserver(o),
		core.WithClient(rpc.NewClient(ktx, append(retryOptions(jitter), rpc.WithObserver(o))...))}
	if monitored {
		n.mon = health.NewMonitor(ktx,
			health.WithInterval(healthInterval),
			health.WithObserver(o),
			health.WithOutlierFactor(grayOutlier),
			health.WithDegradeScore(grayDegrade),
			health.WithIndirectProbes(grayIndirect))
		for _, id := range peers {
			n.mon.Watch(id)
		}
		rtOpts = append(rtOpts, core.WithHealth(n.mon))
	}
	if sessions {
		rtOpts = append(rtOpts, core.WithSessions())
	}
	n.rt = core.NewRuntime(ktx, rtOpts...)
	return n, nil
}

func (n *node) close() {
	n.rt.CloseProxies()
	if n.mon != nil {
		n.mon.Close()
	}
	_ = n.kn.Close()
}

// deployment is one built workload: nodes, the proxies each caller
// invokes, and the handles the audit and the per-layer metrics read.
type deployment struct {
	nodes []*node
	net   *netsim.Network // nil over TCP
	objs  [][]core.Proxy  // [caller][object]
	homes []wire.NodeID   // [caller] -> the node the caller runs on

	served   []*kv // authoritative store per object (stub, replica primary, cache)
	shards   []*kv // shard member stores
	replicas []*replica.Proxy
	caches   []*cache.Proxy
	sharded  *shard.Proxy
}

func (d *deployment) callerNode(c int) wire.NodeID { return d.homes[c] }

func (d *deployment) close() {
	for i := len(d.nodes) - 1; i >= 0; i-- {
		d.nodes[i].close()
	}
	if d.net != nil {
		d.net.Close()
	}
}

// build starts w's deployment and preloads every caller's keys with
// their initial values.
func build(w spec, in *inputs, p *probe) (*deployment, error) {
	switch w.name {
	case "stub-serial", "stub-fanin8", "stub-fanin8-jitter":
		return buildStub(w, in, p)
	case "smart-readmostly":
		return buildSmart(w, in, p)
	case "shard-scatter":
		return buildShard(w, in, p)
	}
	return nil, fmt.Errorf("no deployment for workload %q", w.name)
}

// preload fills s with the initial value of every caller's keys.
func preload(s *kv, in *inputs) {
	for c := range in.keys {
		for i, k := range in.keys[c] {
			s.m[k] = in.values[c][in.initial[c][i]]
		}
	}
}

// buildStub: a server and a client node over loopback TCP. The server
// exports the KV behind the default stub; every caller shares the client
// runtime, hence one stub and one client→server connection.
func buildStub(w spec, in *inputs, p *probe) (d *deployment, err error) {
	d = &deployment{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	sep, err := netsim.ListenTCP(1, "127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	srv, err := newNode(sep, true, nil, false, w.jitter, p)
	if err != nil {
		_ = sep.Close()
		return nil, err
	}
	d.nodes = append(d.nodes, srv)
	cep, err := netsim.ListenTCP(2, "127.0.0.1:0", map[wire.NodeID]string{1: sep.ListenAddr()})
	if err != nil {
		return nil, err
	}
	cli, err := newNode(cep, true, []wire.NodeID{1}, false, w.jitter, p)
	if err != nil {
		_ = cep.Close()
		return nil, err
	}
	d.nodes = append(d.nodes, cli)

	store := newKV(p, roleServer)
	preload(store, in)
	ref, err := srv.rt.Export(store, "KV")
	if err != nil {
		return nil, fmt.Errorf("export kv: %w", err)
	}
	px, err := cli.rt.Import(ref)
	if err != nil {
		return nil, fmt.Errorf("import kv: %w", err)
	}
	d.served = []*kv{store}
	d.objs, d.homes = sameProxies(w.callers, px, cli.id)
	return d, nil
}

// buildSmart: three netsim nodes with session dedup. Node 1 exports a
// replicated KV (object 0) and a cached KV (object 1); caller 0 runs on
// node 2 and caller 1 on node 3.
func buildSmart(w spec, in *inputs, p *probe) (d *deployment, err error) {
	d = &deployment{net: netsim.New()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if err := d.simNodes(3, true, p); err != nil {
		return nil, err
	}
	host := d.nodes[0]
	primary := newKV(p, rolePrimary)
	preload(primary, in)
	repF := replica.NewFactory(kvReads(),
		func() replica.StateMachine { return newKV(p, roleMember) },
		replica.WithName("kv"),
		replica.WithWALStore(func(wire.Addr) persist.LogStore { return p.wal(persist.NewMemStore(nil)) }))
	repRef, err := host.rt.ExportVia(repF, primary, "ReplicatedKV")
	if err != nil {
		return nil, fmt.Errorf("export replicated kv: %w", err)
	}
	cached := newKV(p, roleServer)
	preload(cached, in)
	cacheF := cache.NewFactory(kvReads())
	cacheRef, err := host.rt.ExportVia(cacheF, cached, "CachedKV")
	if err != nil {
		return nil, fmt.Errorf("export cached kv: %w", err)
	}
	d.served = []*kv{primary, cached}
	for c := 0; c < w.callers; c++ {
		rt := d.nodes[1+c].rt
		rt.RegisterProxyType("ReplicatedKV", repF)
		rt.RegisterProxyType("CachedKV", cacheF)
		rp, err := rt.Import(repRef)
		if err != nil {
			return nil, fmt.Errorf("import replicated kv: %w", err)
		}
		cp, err := rt.Import(cacheRef)
		if err != nil {
			return nil, fmt.Errorf("import cached kv: %w", err)
		}
		rep, ok1 := rp.(*replica.Proxy)
		cch, ok2 := cp.(*cache.Proxy)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("imports built %T and %T, want replica and cache proxies", rp, cp)
		}
		d.replicas = append(d.replicas, rep)
		d.caches = append(d.caches, cch)
		d.objs = append(d.objs, []core.Proxy{rp, cp})
		d.homes = append(d.homes, d.nodes[1+c].id)
	}
	return d, nil
}

// buildShard: four netsim nodes. The router runs on node 1, members m0
// and m1 on node 2, m2 and m3 on node 3, and both callers on node 4
// share one sharded proxy. Every key is preloaded into m0; admitting
// the other members rebalances the keyspace over the network.
func buildShard(w spec, in *inputs, p *probe) (d *deployment, err error) {
	d = &deployment{net: netsim.New()}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if err := d.simNodes(4, false, p); err != nil {
		return nil, err
	}
	spec := kvShardSpec()
	sf := shard.NewFactory(spec, shard.WithName("kv"))
	router := shard.NewRouter(d.nodes[0].rt, sf)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		store := newKV(p, roleShard)
		if i == 0 {
			preload(store, in)
		}
		name := fmt.Sprintf("m%d", i)
		ref, err := d.nodes[1+i/2].rt.Export(shard.NewGuard(name, spec, store), "KVShard")
		if err != nil {
			return nil, fmt.Errorf("export shard member %s: %w", name, err)
		}
		if err := router.AddMember(ctx, name, ref); err != nil {
			return nil, fmt.Errorf("admit shard member %s: %w", name, err)
		}
		d.shards = append(d.shards, store)
	}
	ref, err := d.nodes[0].rt.ExportVia(sf, router, "ShardedKV")
	if err != nil {
		return nil, fmt.Errorf("export sharded kv: %w", err)
	}
	cli := d.nodes[3].rt
	cli.RegisterProxyType("ShardedKV", sf)
	px, err := cli.Import(ref)
	if err != nil {
		return nil, fmt.Errorf("import sharded kv: %w", err)
	}
	sp, ok := px.(*shard.Proxy)
	if !ok {
		return nil, fmt.Errorf("import built %T, want a shard proxy", px)
	}
	d.sharded = sp
	d.objs, d.homes = sameProxies(w.callers, px, d.nodes[3].id)
	return d, nil
}

// simNodes attaches n nodes to d's network. They run no failure
// detector: with proxyd's gray-failure defaults in one process, the
// scatter load of shard-scatter graded a member node degraded and its
// breaker opened during warm-up, failing invocations (see README.md).
func (d *deployment) simNodes(n int, sessions bool, p *probe) error {
	for i := 1; i <= n; i++ {
		ep, err := d.net.Attach(wire.NodeID(i))
		if err != nil {
			return err
		}
		nd, err := newNode(ep, false, nil, sessions, false, p)
		if err != nil {
			_ = ep.Close()
			return err
		}
		d.nodes = append(d.nodes, nd)
	}
	return nil
}

// sameProxies hands one proxy to every caller, all running on home.
func sameProxies(callers int, px core.Proxy, home wire.NodeID) ([][]core.Proxy, []wire.NodeID) {
	objs := make([][]core.Proxy, callers)
	homes := make([]wire.NodeID, callers)
	for c := range objs {
		objs[c] = []core.Proxy{px}
		homes[c] = home
	}
	return objs, homes
}

// audit compares the authoritative state with every caller's model: the
// stub server, replica primary and cache server per object, and for the
// sharded deployment the union of the member stores, each key held by
// exactly one member.
func (d *deployment) audit(in *inputs, models []model) error {
	want := func(obj int) map[string][]byte {
		m := make(map[string][]byte)
		for c, md := range models {
			for i, v := range md[obj] {
				m[in.keys[c][i]] = v.cur
			}
		}
		return m
	}
	if len(d.shards) > 0 {
		got := make(map[string][]byte)
		for i, s := range d.shards {
			for k, v := range s.contents() {
				if _, dup := got[k]; dup {
					return fmt.Errorf("audit: key %s held by more than one shard member (m%d and another)", k, i)
				}
				got[k] = v
			}
		}
		return sameState("shard members", got, want(0))
	}
	for obj, s := range d.served {
		if err := sameState(fmt.Sprintf("object %d", obj), s.contents(), want(obj)); err != nil {
			return err
		}
	}
	return nil
}

func sameState(what string, got, want map[string][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("audit: %s hold %d keys, model has %d", what, len(got), len(want))
	}
	for k, v := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("audit: %s lack key %s", what, k)
		}
		if !bytes.Equal(g, v) {
			return fmt.Errorf("audit: %s hold a %d-byte value for %s, model has %d bytes", what, len(g), k, len(v))
		}
	}
	return nil
}

// errWrong marks a reply that disagrees with the model: the run is not
// correct, as opposed to an invocation that returned an error.
var errWrong = errors.New("wrong reply")

// execute issues one op through the caller's proxies and checks the reply
// against the caller's model, updating the model for writes. It returns
// an error wrapping errWrong when the reply is wrong.
func execute(ctx context.Context, px []core.Proxy, o *op, c int, in *inputs, m model) error {
	key := in.keys[c][o.key]
	want := m[o.obj]
	switch o.kind {
	case opGet:
		res, err := px[o.obj].Invoke(ctx, "get", key)
		if err != nil {
			return err
		}
		return checkValue(in, res, &want[o.key], "get", key)
	case opPut:
		v := in.values[c][o.val]
		res, err := px[o.obj].Invoke(ctx, "put", key, v)
		if err != nil {
			return err
		}
		want[o.key].set(v)
		if n, ok := oneInt(res); !ok || n != int64(len(v)) {
			return fmt.Errorf("%w: put %s returned %v, want %d", errWrong, key, res, len(v))
		}
	case opIncr:
		res, err := px[o.obj].Invoke(ctx, "incr", key)
		if err != nil {
			return err
		}
		next, n := incremented(want[o.key].cur)
		want[o.key].set(next)
		if got, ok := oneInt(res); !ok || got != n {
			return fmt.Errorf("%w: incr %s returned %v, want %d", errWrong, key, res, n)
		}
	case opMget:
		args := make([]any, mgetWidth)
		for j, k := range in.mgetKeys(c, o) {
			args[j] = in.keys[c][k]
		}
		res, err := px[o.obj].Invoke(ctx, "mget", args...)
		if err != nil {
			return err
		}
		if len(res) != mgetWidth {
			return fmt.Errorf("%w: mget returned %d results, want %d", errWrong, len(res), mgetWidth)
		}
		for j, k := range in.mgetKeys(c, o) {
			if ke, ok := shard.AsKeyError(res[j]); ok {
				return fmt.Errorf("mget %s: %w", ke.Key, ke.Err)
			}
			if err := checkValue(in, res[j:j+1], &want[k], "mget", in.keys[c][k]); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkValue(in *inputs, res []any, want *slot, method, key string) error {
	if len(res) != 1 {
		return fmt.Errorf("%w: %s %s returned %d results", errWrong, method, key, len(res))
	}
	got, ok := res[0].([]byte)
	switch {
	case ok && bytes.Equal(got, want.cur):
		return nil
	case ok && want.prev != nil && bytes.Equal(got, want.prev):
		return fmt.Errorf("%w: %s %s returned the value the key held before the caller's last write (%d bytes)", errWrong, method, key, len(got))
	}
	return fmt.Errorf("%w: %s %s returned %s, want the caller's last write (%d bytes)", errWrong, method, key, in.describe(res[0]), len(want.cur))
}

// describe names a wrong reply and, for bytes, which caller's value pool
// they come from: the key owner's (a stale value) or another caller's
// (a reply delivered to the wrong invocation).
func (in *inputs) describe(v any) string {
	b, ok := v.([]byte)
	if !ok {
		return fmt.Sprintf("a %T", v)
	}
	for c, pool := range in.values {
		for i, x := range pool {
			if bytes.Equal(b, x) {
				return fmt.Sprintf("%d bytes, value %d of caller %d's pool", len(b), i, c)
			}
		}
	}
	return fmt.Sprintf("%d bytes found in no caller's pool", len(b))
}

func oneInt(res []any) (int64, bool) {
	if len(res) != 1 {
		return 0, false
	}
	n, ok := res[0].(int64)
	return n, ok
}
