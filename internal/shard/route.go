package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/kernel"
)

// routeAttempts bounds how many times one invocation re-routes after a
// misroute (stale table) or a frozen key (rebalance in flight) before
// surfacing the error.
const routeAttempts = 6

// owners is what routing needs from a routing layer. The client-side
// Proxy and the Router facade both implement it, so both route single
// keys and scatter multi-key operations the same way.
type owners interface {
	// routeTable returns the routing table; refresh asks for a newer one
	// than the last (after misroutes or a failed batch).
	routeTable(ctx context.Context, refresh bool) (*Ring, map[string]codec.Ref, error)
	// callOwner sends one sub-invocation through the owner's own proxy:
	// a single-key invocation, or a batch — the mapped single-key method
	// with one argument, the list of the owner's elements.
	callOwner(ctx context.Context, owner string, ref codec.Ref, method string, args []any) ([]any, error)
	// ownerScore ranks an owner for launch order: its node's gray-failure
	// score, 0 when healthy or unknown.
	ownerScore(ref codec.Ref) float64
	// misrouted counts one key an owner refused under a stale table.
	misrouted()
	// authoritative reports that routeTable is the routing authority
	// (the Router), not a fetched copy (the Proxy). An empty authoritative
	// table fails at once; an empty copy is refetched within
	// routeAttempts, since the first member may still be being admitted.
	authoritative() bool
}

// routeKey sends one single-key invocation to the key's owner,
// re-reading the table and re-routing on misroutes, freezes and owners
// that never answered, within routeAttempts; an authoritative table with
// no members fails at once. The caller's session identity, if any,
// travels with it: the invocation is the caller's own.
func routeKey(ctx context.Context, o owners, method, key string, args []any) ([]any, error) {
	var lastErr error
	for attempt := 0; attempt < routeAttempts; attempt++ {
		if attempt > 0 {
			if err := routeBackoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		ring, members, err := o.routeTable(ctx, attempt > 0)
		if errors.Is(err, ErrNoMembers) && o.authoritative() {
			return nil, err // nothing to re-route to
		}
		if err != nil {
			lastErr = err
			continue
		}
		owner := ring.Owner(key)
		ref, ok := members[owner]
		if !ok {
			lastErr = fmt.Errorf("%w: owner %q", ErrUnknownMember, owner)
			continue
		}
		res, err := o.callOwner(ctx, owner, ref, method, args)
		if err == nil || !retryableRoute(err) {
			return res, err
		}
		if isMisroute(err) {
			o.misrouted()
		}
		lastErr = err
	}
	return nil, lastErr
}

// The grouping and sending below avoid allocations in six places. Each
// was measured by removing it alone and running the shard-scatter
// benchmark workload (three 10 s runs each, 2-vCPU Xeon, go1.24): 80.0
// allocs/op with all six, 93.8 with none, against a run-to-run
// interquartile range of about 0.4. The figure beside each is what
// removing it costs per operation; Guard.invokeBatch holds the sixth.

// batch is one owner's share of a multi-key operation.
type batch struct {
	owner string
	ref   codec.Ref
	score float64
	n     int   // keys in the batch
	slots []int // argument positions, in argument order
	elems []any // the arguments at those positions
	// arg is the sub-invocation's argument vector, elems; held here
	// rather than built per send (+1.8 allocs/op).
	arg [1]any
}

// round is one attempt of a multi-key operation: its batches, and the
// state the goroutines sending them share.
type round struct {
	ctx     context.Context
	o       owners
	single  string
	args    []any
	out     []any
	batches []batch
	inline  [4]batch // batches' backing for up to four owners (+1.5 allocs/op)
	next    atomic.Int64
	wg      sync.WaitGroup
}

// scatter runs a multi-key operation as one batched sub-invocation per
// owning member, at most limit batches in flight. Each argument is a
// bare key or a key vector (see Spec); a batch invokes single with the
// list of its owner's elements, and the owner's Guard answers with one
// result per element.
//
// The result vector aligns with args. A key that failed carries a
// *KeyError in its slot while the others carry their results. Keys that
// came back retryable — misrouted, frozen, or in a batch that failed in
// transport — are regrouped under a refreshed table and resent, alone,
// within routeAttempts. An authoritative table with no members fails
// every key at once.
//
// Batches launch healthiest owner first, so a degraded owner cannot hold
// every slot while healthy owners wait behind it, and the caller's
// goroutine sends batches too instead of idling in a wait.
func scatter(ctx context.Context, o owners, method, single string, args []any, limit int) ([]any, error) {
	for _, a := range args {
		if _, _, err := splitElem(method, a); err != nil {
			return nil, err
		}
	}
	if limit <= 0 {
		limit = 8
	}
	// A stamped caller identity names one invocation; forwarded to every
	// batch, a dedup table would answer all but the first batch with the
	// first one's reply. Each batch takes its own from the owner's proxy.
	r := &round{ctx: core.ContextWithSession(ctx, 0, 0), o: o, single: single, args: args, out: make([]any, len(args))}
	pending := make([]int, len(args))
	for i := range pending {
		pending[i] = i
	}
	// routeErr is set when the last attempt could not even send: the
	// pending keys then fail with it rather than with an older error.
	var routeErr error
	for attempt := 0; len(pending) > 0 && attempt < routeAttempts; attempt++ {
		if attempt > 0 {
			if err := routeBackoff(ctx, attempt); err != nil {
				routeErr = err
				break
			}
		}
		ring, members, err := o.routeTable(ctx, attempt > 0)
		if err != nil {
			routeErr = err
			if errors.Is(err, ErrNoMembers) && o.authoritative() {
				break // nothing to re-route to
			}
			continue
		}
		routeErr = nil
		r.group(ring, members, pending)
		r.run(limit)
		pending = retryable(o, pending, r.out)
	}
	for _, i := range pending {
		if _, ok := r.out[i].(*KeyError); !ok || routeErr != nil {
			key, _, _ := splitElem(method, args[i])
			r.out[i] = &KeyError{Key: key, Err: routeErr}
		}
	}
	return r.out, nil
}

// group splits the pending keys into one batch per owner under the given
// table, ordered by owner health score (lowest first, ties in order of
// first appearance). A key whose owner has no reference fails its slot
// with a retryable ErrUnknownMember.
func (r *round) group(ring *Ring, members map[string]codec.Ref, pending []int) {
	r.batches = r.inline[:0]
	// One array holds which batch each pending key joins and, after it,
	// every batch's slots (+3.8 allocs/op as separate appends).
	ints := make([]int, 2*len(pending))
	which := ints[:len(pending)]
	grouped := 0
	for j, i := range pending {
		key, _, _ := splitElem("", r.args[i])
		name := ring.Owner(key)
		b := -1
		for k := range r.batches {
			if r.batches[k].owner == name {
				b = k
				break
			}
		}
		if b < 0 {
			ref, ok := members[name]
			if !ok {
				r.out[i] = &KeyError{Key: key, Err: fmt.Errorf("%w: owner %q", ErrUnknownMember, name)}
				which[j] = -1
				continue
			}
			r.batches = append(r.batches, batch{owner: name, ref: ref, score: r.o.ownerScore(ref)})
			b = len(r.batches) - 1
		}
		which[j] = b
		r.batches[b].n++
		grouped++
	}
	// Carve every batch's slots and elements out of one array each
	// (the elements: +3.3 allocs/op as per-batch appends).
	slots := ints[len(pending) : len(pending)+grouped]
	elems := make([]any, grouped)
	off := 0
	for k := range r.batches {
		b := &r.batches[k]
		b.slots = slots[off : off : off+b.n]
		b.elems = elems[off : off : off+b.n]
		off += b.n
	}
	for j, i := range pending {
		if k := which[j]; k >= 0 {
			b := &r.batches[k]
			b.slots = append(b.slots, i)
			b.elems = append(b.elems, r.args[i])
		}
	}
	for k := range r.batches {
		r.batches[k].arg[0] = r.batches[k].elems
	}
	slices.SortStableFunc(r.batches, func(x, y batch) int { return cmp.Compare(x.score, y.score) })
}

// run sends every batch with at most limit in flight: limit-1 helper
// goroutines and the caller's own take batches in launch order (+1.0
// allocs/op as one goroutine per batch under a semaphore).
func (r *round) run(limit int) {
	workers := min(limit, len(r.batches))
	if workers == 0 {
		return
	}
	r.next.Store(0)
	r.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer r.wg.Done()
			r.work()
		}()
	}
	r.work()
	r.wg.Wait()
}

func (r *round) work() {
	for {
		k := int(r.next.Add(1)) - 1
		if k >= len(r.batches) {
			return
		}
		r.send(&r.batches[k])
	}
}

// send sends one batch and writes its slots of out: the owner's
// per-element results, or the batch's error in every slot.
func (r *round) send(b *batch) {
	res, err := r.o.callOwner(r.ctx, b.owner, b.ref, r.single, b.arg[:])
	if err == nil {
		var vals []any
		if len(res) > 0 {
			vals, _ = res[0].([]any)
		}
		if len(vals) == len(b.slots) {
			for j, i := range b.slots {
				if ke, ok := AsKeyError(vals[j]); ok {
					r.out[i] = ke
				} else {
					r.out[i] = vals[j]
				}
			}
			return
		}
		err = core.Errorf(core.CodeInternal, r.single, "shard: member %q answered a %d-key batch with %d results", b.owner, len(b.slots), len(vals))
	}
	for _, i := range b.slots {
		key, _, _ := splitElem(r.single, r.args[i])
		r.out[i] = &KeyError{Key: key, Err: err}
	}
}

// retryable filters pending down (in place) to the keys whose slot holds
// a failure re-routing can help with, counting misroutes.
func retryable(o owners, pending []int, out []any) []int {
	n := 0
	for _, i := range pending {
		ke, ok := out[i].(*KeyError)
		if !ok || !retryableRoute(ke.Err) {
			continue
		}
		if isMisroute(ke.Err) {
			o.misrouted()
		}
		pending[n] = i
		n++
	}
	return pending[:n]
}

// splitElem parses one multi-key element: a bare string key, or a key
// vector whose first element is the key and which is itself the
// single-key invocation's argument list. For a bare key args is nil:
// the invocation's arguments are just the key.
func splitElem(method string, a any) (key string, args []any, err error) {
	switch x := a.(type) {
	case string:
		return x, nil, nil
	case []any:
		if len(x) == 0 {
			return "", nil, core.BadArgs(method, "shard: empty key vector")
		}
		k, ok := x[0].(string)
		if !ok {
			return "", nil, core.BadArgs(method, fmt.Sprintf("shard: key vector must lead with a string key, got %T", x[0]))
		}
		return k, x, nil
	default:
		return "", nil, core.BadArgs(method, fmt.Sprintf("shard: multi-key argument must be a key or key vector, got %T", a))
	}
}

// routeBackoff pauses between route retries (freezes are short).
func routeBackoff(ctx context.Context, attempt int) error {
	d := time.Duration(attempt) * 20 * time.Millisecond
	if d > 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// retryableRoute reports whether a member's refusal means re-routing
// can help: a stale table (misroute), a mid-rebalance freeze
// (unavailable), or a member that never answered at all — it may have
// crashed and been force-removed, so the refreshed table names its
// successor. Answered errors — including fencing — surface: the member
// is alive and meant what it said.
func retryableRoute(err error) bool {
	var ie *core.InvokeError
	if errors.As(err, &ie) {
		return ie.Code == core.CodeMisroute || ie.Code == core.CodeUnavailable
	}
	var re *kernel.RemoteError
	return !errors.As(err, &re)
}

func isMisroute(err error) bool {
	var ie *core.InvokeError
	return errors.As(err, &ie) && ie.Code == core.CodeMisroute
}
