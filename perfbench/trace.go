package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/persist"
	"repro/internal/wire"
)

// probe is the traced run's recorder. It sits at the public boundaries a
// deployment is built from — endpoint wrappers below and above the train
// coalescer, the exported kv's Invoke, the replica WAL store — and times
// calls into each layer from outside, without changing the program.
//
// Frames are tied to invocations through keys: every caller owns its
// keys and has one invocation in flight, so a key found in a request
// payload names the caller and thus its current invocation. Replies are
// tied to requests by (requester address, request id).
//
// Everything stays in memory while armed; spans are assembled and
// written out after the run.
type probe struct {
	t0    time.Time
	armed atomic.Bool

	active []atomic.Uint64 // [caller] -> invocation in flight
	invSeq atomic.Uint64

	invs [][]invRec // [caller] -> invocations, appended by the caller only

	mu     sync.Mutex
	frames map[frameKey]*frameRec
	hands  []handRec
	sends  []int64 // below-coalescer Send durations (ns)

	// Counts are kept apart from the capped records, so ratios stay exact.
	belowFrames, belowBytes atomic.Uint64
	aboveFrames, pings      atomic.Uint64
	shardCalls, applies     atomic.Uint64
	walCount, walBytes      atomic.Uint64

	walMu      sync.Mutex
	walAppends []walRec
}

// maxRecords caps each kind of record a traced phase keeps, bounding its
// memory; timings are medians over the records kept, counts are not
// capped.
const maxRecords = 200000

type invRec struct {
	id         uint64
	kind       opKind
	obj        uint8
	start, end int64
}

// frameKey names a request and its reply: the requester's address and
// its request id.
type frameKey struct {
	from  wire.Addr
	reqID uint64
}

// frameRec follows one attributed request and its reply.
type frameRec struct {
	inv       uint64
	caller    int
	key       int32
	src, dst  wire.NodeID
	send      int64 // request Send above the coalescer
	arrive    int64 // request arrival on the destination's Recv
	repSend   int64 // reply Send above the coalescer
	repArrive int64 // reply arrival on the requester's Recv
	sid, seq  uint64
	repLen    int
}

type handRec struct {
	inv        uint64
	caller     int
	key        int32
	role       role
	write      bool
	start, end int64
}

// isApply reports whether h applied a write to a replica: the primary's
// state machine or a member's copy.
func (h handRec) isApply() bool { return (h.role == rolePrimary || h.role == roleMember) && h.write }

type walRec struct {
	bytes int
	dur   int64
}

func newProbe(callers int) *probe {
	return &probe{
		t0:     time.Now(),
		active: make([]atomic.Uint64, callers),
		invs:   make([][]invRec, callers),
		frames: make(map[frameKey]*frameRec),
	}
}

func (p *probe) now() int64 { return int64(time.Since(p.t0)) }

// disarm stops recording. Every recorder re-checks armed under the lock
// it writes with, so once disarm returns no write can land and the
// records may be read without the locks.
func (p *probe) disarm() {
	p.mu.Lock()
	p.walMu.Lock()
	p.armed.Store(false)
	p.walMu.Unlock()
	p.mu.Unlock()
}

// begin marks caller c's next invocation in flight and returns its id.
func (p *probe) begin(c int) uint64 {
	id := p.invSeq.Add(1)
	p.active[c].Store(id)
	return id
}

func (p *probe) end(c int, id uint64, o *op, start, end time.Time) {
	p.invs[c] = append(p.invs[c], invRec{
		id: id, kind: o.kind, obj: o.obj,
		start: int64(start.Sub(p.t0)), end: int64(end.Sub(p.t0)),
	})
}

// parseKey finds the first benchmark key ("pbCCkIIIII") in the head of a
// payload and returns its caller and key index.
func parseKey(b []byte) (caller int, key int32, ok bool) {
	if len(b) > 256 {
		b = b[:256]
	}
	for i := 0; i+10 <= len(b); i++ {
		if b[i] != 'p' || b[i+1] != 'b' || b[i+4] != 'k' {
			continue
		}
		c, ok1 := digits(b[i+2 : i+4])
		k, ok2 := digits(b[i+5 : i+10])
		if ok1 && ok2 {
			return c, int32(k), true
		}
	}
	return 0, 0, false
}

func digits(b []byte) (int, bool) {
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

func isResponse(f *wire.Frame) bool { return f.Flags&wire.FlagResponse != 0 }

// sent records a frame handed to the coalescer by node.
func (p *probe) sent(f *wire.Frame) {
	if !p.armed.Load() {
		return
	}
	t := p.now()
	p.aboveFrames.Add(1)
	if f.Kind == wire.KindPing {
		p.pings.Add(1)
		return
	}
	if isResponse(f) {
		p.mu.Lock()
		if r := p.frames[frameKey{f.Dst, f.ReqID}]; r != nil && p.armed.Load() {
			r.repSend, r.repLen = t, len(f.Payload)
		}
		p.mu.Unlock()
		return
	}
	c, k, ok := parseKey(f.Payload)
	if !ok || c >= len(p.active) {
		return
	}
	r := &frameRec{
		inv: p.active[c].Load(), caller: c, key: k,
		src: f.Src.Node, dst: f.Dst.Node, send: t,
	}
	p.mu.Lock()
	if p.armed.Load() && len(p.frames) < maxRecords {
		p.frames[frameKey{f.Src, f.ReqID}] = r
	}
	p.mu.Unlock()
}

// arrived records a frame delivered to node's Recv, unpacking trains.
func (p *probe) arrived(f *wire.Frame) {
	if !p.armed.Load() {
		return
	}
	t := p.now()
	if f.Kind == wire.KindTrain {
		_, _, _ = wire.ForEachTrainMember(f.Payload, func(m *wire.Frame) { p.arrivedAt(m, t) })
		return
	}
	p.arrivedAt(f, t)
}

func (p *probe) arrivedAt(f *wire.Frame, t int64) {
	if f.Kind == wire.KindPing {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.armed.Load() {
		return
	}
	if isResponse(f) {
		if r := p.frames[frameKey{f.Dst, f.ReqID}]; r != nil {
			r.repArrive = t
		}
		return
	}
	if r := p.frames[frameKey{f.Src, f.ReqID}]; r != nil {
		r.arrive = t
		r.sid, r.seq, _ = wire.PeekSession(f.Payload)
	}
}

// handler records one invocation of an exported or replicated kv.
func (p *probe) handler(r role, method, key string, start, end time.Time) {
	if !p.armed.Load() {
		return
	}
	c, k, ok := parseKey([]byte(key))
	if !ok || c >= len(p.active) {
		return
	}
	h := handRec{
		inv: p.active[c].Load(), caller: c, key: k, role: r,
		write: method != "get",
		start: int64(start.Sub(p.t0)), end: int64(end.Sub(p.t0)),
	}
	if r == roleShard {
		p.shardCalls.Add(1)
	}
	if h.isApply() {
		p.applies.Add(1)
	}
	p.mu.Lock()
	if p.armed.Load() && len(p.hands) < maxRecords {
		p.hands = append(p.hands, h)
	}
	p.mu.Unlock()
}

// below wraps a transport endpoint under the coalescer: Send self time,
// frames and bytes on the wire, and arrival times on Recv.
func (p *probe) below(ep netsim.Endpoint) netsim.Endpoint {
	b := &belowEP{Endpoint: ep, p: p, out: make(chan *wire.Frame, 1024),
		stop: make(chan struct{}), done: make(chan struct{})}
	go b.forward()
	return b
}

type belowEP struct {
	netsim.Endpoint
	p    *probe
	out  chan *wire.Frame // same depth as the transports' own queues
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func (b *belowEP) forward() {
	defer close(b.done)
	defer close(b.out)
	in := b.Endpoint.Recv()
	for {
		select {
		case f, ok := <-in:
			if !ok {
				return
			}
			b.p.arrived(f)
			select {
			case b.out <- f:
			case <-b.stop:
				return
			}
		case <-b.stop:
			return
		}
	}
}

func (b *belowEP) Send(f *wire.Frame) error {
	if !b.p.armed.Load() {
		return b.Endpoint.Send(f)
	}
	start := time.Now()
	err := b.Endpoint.Send(f)
	d := int64(time.Since(start))
	b.p.belowFrames.Add(1)
	b.p.belowBytes.Add(uint64(f.EncodedLen()))
	b.p.mu.Lock()
	if b.p.armed.Load() && len(b.p.sends) < maxRecords {
		b.p.sends = append(b.p.sends, d)
	}
	b.p.mu.Unlock()
	return err
}

func (b *belowEP) Recv() <-chan *wire.Frame { return b.out }

func (b *belowEP) Close() error {
	err := b.Endpoint.Close()
	b.once.Do(func() { close(b.stop) })
	<-b.done
	return err
}

// above wraps the coalescing endpoint the kernel sends through: member
// frames and the send side of every attributed request and reply. The
// embedded endpoint supplies Recv, Close and MarkTrainCapable.
func (p *probe) above(ce *netsim.CoalescedEndpoint) netsim.Endpoint {
	return &aboveEP{CoalescedEndpoint: ce, p: p}
}

type aboveEP struct {
	*netsim.CoalescedEndpoint
	p *probe
}

func (a *aboveEP) Send(f *wire.Frame) error {
	a.p.sent(f)
	return a.CoalescedEndpoint.Send(f)
}

// wal wraps a replica WAL store to count and time appends. A nil probe
// returns the store unchanged.
func (p *probe) wal(s persist.LogStore) persist.LogStore {
	if p == nil {
		return s
	}
	return &walStore{LogStore: s, p: p}
}

type walStore struct {
	persist.LogStore
	p *probe
}

func (w *walStore) Append(data []byte) error {
	if !w.p.armed.Load() {
		return w.LogStore.Append(data)
	}
	start := time.Now()
	err := w.LogStore.Append(data)
	rec := walRec{bytes: len(data), dur: int64(time.Since(start))}
	w.p.walCount.Add(1)
	w.p.walBytes.Add(uint64(len(data)))
	w.p.walMu.Lock()
	if w.p.armed.Load() && len(w.p.walAppends) < maxRecords {
		w.p.walAppends = append(w.p.walAppends, rec)
	}
	w.p.walMu.Unlock()
	return err
}

// span is one recorded boundary crossing of an invocation.
type span struct {
	id, parent uint64
	inv        uint64
	name       string
	node       wire.NodeID
	start, end int64
}

// spans assembles the recorded events into span trees: invoke at the
// root; one rpc span per request the caller's node sent, covering
// request Send to reply arrival; under it the request's transit, the
// server's ingress, handler and reply, and the reply's transit.
func (p *probe) spans(callerNode func(c int) wire.NodeID) []span {
	var out []span
	var next uint64
	add := func(parent, inv uint64, name string, node wire.NodeID, s, e int64) uint64 {
		if s == 0 || e == 0 || e < s {
			return 0
		}
		next++
		out = append(out, span{id: next, parent: parent, inv: inv, name: name, node: node, start: s, end: e})
		return next
	}
	roots := make(map[uint64]uint64)
	for c := range p.invs {
		for _, r := range p.invs[c] {
			roots[r.id] = add(0, r.id, "invoke", callerNode(c), r.start, r.end)
		}
	}
	hands := p.handIndex()
	for _, f := range p.frames {
		root, ok := roots[f.inv]
		if !ok || f.src != callerNode(f.caller) {
			continue
		}
		rpc := add(root, f.inv, "rpc", f.src, f.send, f.repArrive)
		if rpc == 0 {
			continue
		}
		add(rpc, f.inv, "netsim.transit", f.src, f.send, f.arrive)
		if h, ok := hands[handKey{f.inv, f.key}]; ok {
			add(rpc, f.inv, "kernel.ingress", f.dst, f.arrive, h.start)
			add(rpc, f.inv, "kernel.handler", f.dst, h.start, h.end)
			add(rpc, f.inv, "kernel.reply", f.dst, h.end, f.repSend)
		}
		add(rpc, f.inv, "netsim.transit", f.dst, f.repSend, f.repArrive)
	}
	return out
}

type handKey struct {
	inv uint64
	key int32
}

// handIndex maps (invocation, key) to the served handler call: the stub
// or cache server, the replica primary, or a shard member.
func (p *probe) handIndex() map[handKey]handRec {
	m := make(map[handKey]handRec, len(p.hands))
	for _, h := range p.hands {
		if h.role != roleMember {
			m[handKey{h.inv, h.key}] = h
		}
	}
	return m
}

// writeSpans writes spans as tab-separated lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tinv\tname\tnode\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.inv, s.name, s.node, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
