package kernel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/wire"
)

// limitedPair builds a caller node and a server node whose dispatch is
// configured by opts, on a fresh simulated network.
func limitedPair(t *testing.T, opts ...NodeOption) (client *Context, server *Node, srvCtx *Context) {
	t.Helper()
	net := netsim.New()
	t.Cleanup(net.Close)
	ep1, _ := net.Attach(1)
	ep2, _ := net.Attach(2)
	n1 := NewNode(ep1)
	n2 := NewNode(ep2, opts...)
	t.Cleanup(func() { n1.Close(); n2.Close() })
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	return c1, n2, c2
}

// TestDispatchWorkersRespectLimitUnderChurn drives many short handlers
// from concurrent callers: the handlers running at once, and the dispatch
// workers ever started, must both stay within the dispatch limit.
func TestDispatchWorkersRespectLimitUnderChurn(t *testing.T) {
	const limit = 3
	c1, n2, c2 := limitedPair(t, WithDispatchLimit(limit))
	var running, peak atomic.Int32
	obj := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		r := running.Add(1)
		for {
			p := peak.Load()
			if r <= p || peak.CompareAndSwap(p, r) {
				break
			}
		}
		runtime.Gosched()
		running.Add(-1)
		_ = ktx.Respond(f, wire.KindReply, f.Payload)
	}))

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("x")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > limit || got == 0 {
		t.Errorf("peak concurrent handlers = %d, limit is %d", got, limit)
	}
	n2.Close() // the pump has exited, so reading its worker count is safe
	if n2.workers > limit {
		t.Errorf("started %d dispatch workers, limit is %d", n2.workers, limit)
	}
}

// TestBlockedHandlerDoesNotStallDispatch parks one handler indefinitely;
// calls to another object on the same node must keep completing.
func TestBlockedHandlerDoesNotStallDispatch(t *testing.T) {
	c1, _, c2 := limitedPair(t, WithDispatchLimit(4))
	release := make(chan struct{})
	entered := make(chan struct{})
	stuck := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		close(entered)
		<-release
		_ = ktx.Respond(f, wire.KindReply, nil)
	}))
	echo := c2.Register(echoHandler{})

	stuckDone := make(chan error, 1)
	go func() {
		_, err := c1.Call(context.Background(), c2.Addr(), stuck, wire.KindRequest, 0, nil)
		stuckDone <- err
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 100; i++ {
		if _, err := c1.Call(ctx, c2.Addr(), echo, wire.KindRequest, 0, []byte("y")); err != nil {
			t.Fatalf("call %d behind a blocked handler: %v", i, err)
		}
	}
	close(release)
	if err := <-stuckDone; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
}

// TestDispatchWorkersExitOnClose leaves a handler blocked across Close:
// once it returns, every dispatch worker (and every other goroutine the
// nodes started) must be gone.
func TestDispatchWorkersExitOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	net := netsim.New()
	ep1, _ := net.Attach(1)
	ep2, _ := net.Attach(2)
	n1, n2 := NewNode(ep1), NewNode(ep2)
	c1, _ := n1.NewContext()
	c2, _ := n2.NewContext()
	echo := c2.Register(echoHandler{})
	release := make(chan struct{})
	entered := make(chan struct{})
	stuck := c2.Register(HandlerFunc(func(ktx *Context, f *wire.Frame) {
		close(entered)
		<-release
	}))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, _ = c1.Call(context.Background(), c2.Addr(), echo, wire.KindRequest, 0, nil)
			}
		}()
	}
	wg.Wait()
	go func() { _, _ = c1.Call(context.Background(), c2.Addr(), stuck, wire.KindRequest, 0, nil) }()
	<-entered

	n1.Close()
	n2.Close()
	net.Close()
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after Close\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAdmissionPathStartsNoWorkers pins that WithAdmission still hands
// requests to the admission controller, not to the dispatch workers.
func TestAdmissionPathStartsNoWorkers(t *testing.T) {
	reg := obs.NewRegistry()
	c1, n2, c2 := limitedPair(t, WithAdmission(overload.NewController(overload.Config{}, reg, "")))
	obj := c2.Register(echoHandler{})
	for i := 0; i < 20; i++ {
		if _, err := c1.Call(context.Background(), c2.Addr(), obj, wire.KindRequest, 0, []byte("z")); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("overload.admitted").Load(); got != 20 {
		t.Errorf("admission controller admitted %d requests, want 20", got)
	}
	n2.Close()
	if n2.workers != 0 {
		t.Errorf("admission path started %d dispatch workers", n2.workers)
	}
}

func TestOnCloseRunsOnceAfterClose(t *testing.T) {
	net := netsim.New()
	t.Cleanup(net.Close)
	ep, _ := net.Attach(1)
	n := NewNode(ep)
	var calls atomic.Int32
	n.OnClose(func() { calls.Add(1) })
	if calls.Load() != 0 {
		t.Fatal("hook ran before Close")
	}
	n.Close()
	n.Close()
	if got := calls.Load(); got != 1 {
		t.Fatalf("hook ran %d times, want 1", got)
	}
	n.OnClose(func() { calls.Add(1) })
	if got := calls.Load(); got != 2 {
		t.Fatalf("hook registered after Close ran %d times, want at once", got-1)
	}
}
