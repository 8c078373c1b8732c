package rpc

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// rawRig serves an rpc.Server on node 2 and hands the test node 1's bare
// endpoint, so requests go out under request ids the test picks — which
// is how a retransmission looks on the wire.
type rawRig struct {
	ep     netsim.Endpoint
	dst    wire.ObjAddr
	srv    *Server
	execs  sync.Map // reqID -> *atomic.Int32
	client wire.Addr
}

// newRawRig registers a server whose reply to request id n is n's 8-byte
// big-endian encoding, so any reply names the request it belongs to.
func newRawRig(t *testing.T, opts ...ServerOption) *rawRig {
	t.Helper()
	net := netsim.New()
	ep1, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := net.Attach(2)
	if err != nil {
		t.Fatal(err)
	}
	n2 := kernel.NewNode(ep2)
	t.Cleanup(func() { n2.Close(); net.Close() })
	ktx, err := n2.NewContext()
	if err != nil {
		t.Fatal(err)
	}
	r := &rawRig{ep: ep1, client: wire.Addr{Node: 1, Context: 1}}
	r.srv = NewServer(HandlerFunc(func(req *Request) (wire.Kind, []byte, []byte) {
		n, _ := r.execs.LoadOrStore(req.ReqID, new(atomic.Int32))
		n.(*atomic.Int32).Add(1)
		return wire.KindReply, binary.BigEndian.AppendUint64(nil, req.ReqID), nil
	}), opts...)
	r.dst = wire.ObjAddr{Addr: ktx.Addr(), Object: ktx.Register(r.srv)}
	return r
}

func (r *rawRig) send(t *testing.T, id uint64, flags uint16) {
	f := &wire.Frame{Kind: wire.KindRequest, Flags: flags, ReqID: id,
		Src: r.client, Dst: r.dst.Addr, Object: r.dst.Object}
	if err := r.ep.Send(f); err != nil {
		t.Error(err)
	}
}

// call sends one request and waits for its reply.
func (r *rawRig) call(t *testing.T, id uint64, flags uint16) {
	t.Helper()
	r.send(t, id, flags)
	select {
	case f := <-r.ep.Recv():
		if f.ReqID != id || binary.BigEndian.Uint64(f.Payload) != id {
			t.Fatalf("request %d answered with reply %x for id %d", id, f.Payload, f.ReqID)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("request %d: no reply", id)
	}
}

func (r *rawRig) executions(id uint64) int32 {
	if n, ok := r.execs.Load(id); ok {
		return n.(*atomic.Int32).Load()
	}
	return 0
}

// TestReplyCacheReuseKeepsLRUOrder fills a 4-entry cache, touches its
// oldest entry, and adds one more: the recycled slot must be the least
// recently used entry, not the least recently added one.
func TestReplyCacheReuseKeepsLRUOrder(t *testing.T) {
	r := newRawRig(t, WithReplyCache(4))
	for id := uint64(1); id <= 4; id++ {
		r.call(t, id, 0)
	}
	r.call(t, 1, wire.FlagRetransmit) // cached: 1 becomes most recent
	r.call(t, 5, 0)                   // evicts 2, the least recently used
	r.call(t, 1, wire.FlagRetransmit)
	r.call(t, 2, wire.FlagRetransmit)
	if got := r.executions(1); got != 1 {
		t.Errorf("request 1 ran %d times; its entry should have survived", got)
	}
	if got := r.executions(2); got != 2 {
		t.Errorf("request 2 ran %d times; its entry should have been recycled", got)
	}
	if size := r.srv.cacheLen(r.client); size != 4 {
		t.Errorf("cache holds %d entries, bound is 4", size)
	}
}

// TestReplyCacheReuseUnderRetransmitRace retransmits the request ids at
// the LRU tail while fresh ids force those very entries to be recycled.
// Under -race this checks that a cached reply is copied out under the
// lock; in any build, every reply must be the one its own request
// produced — a duplicate answered from a reused entry must never carry
// another request's reply.
func TestReplyCacheReuseUnderRetransmitRace(t *testing.T) {
	const cacheSize, fresh = 8, 3000
	r := newRawRig(t, WithReplyCache(cacheSize))

	var replies, wrong atomic.Int64
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case f := <-r.ep.Recv():
				replies.Add(1)
				if len(f.Payload) != 8 || binary.BigEndian.Uint64(f.Payload) != f.ReqID {
					wrong.Add(1)
				}
			case <-stop:
				return
			}
		}
	}()

	var latest atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // evictor: fresh ids, paced so the server keeps up
		defer wg.Done()
		for id := uint64(1); id <= fresh; id++ {
			r.send(t, id, 0)
			latest.Store(id)
			if id%16 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	go func() { // retransmitter: the entries about to be recycled
		defer wg.Done()
		for latest.Load() < fresh {
			l := latest.Load()
			if l <= cacheSize {
				continue
			}
			for back := uint64(cacheSize - 2); back <= cacheSize; back++ {
				r.send(t, l-back, wire.FlagRetransmit)
			}
		}
	}()
	wg.Wait()
	time.Sleep(100 * time.Millisecond) // let the last replies land
	close(stop)
	<-readerDone

	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d of %d replies answered a different request", n, replies.Load())
	}
	if replies.Load() < fresh/2 {
		t.Fatalf("only %d replies for %d fresh requests", replies.Load(), fresh)
	}
	st := r.srv.Stats()
	if st.DupCached == 0 {
		t.Error("no retransmission was answered from the cache; the race was not exercised")
	}
	t.Logf("replies=%d executed=%d dupCached=%d dupInFlight=%d",
		replies.Load(), st.Executed, st.DupCached, st.DupInFlight)
}
