package shard

import (
	"context"
	"errors"
	"sync"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/wire"
)

// Reserved invocation methods of the rebalance protocol. They flow
// through the ordinary invocation surface on purpose: a guard reached
// through a replica group gets every handoff step as an ordered,
// WAL-logged write, so a shard-owner crash mid-rebalance cannot lose a
// moved range that was acked.
const (
	methodKeys   = "shard.keys"   // (epoch) -> [keys]           enumerate held keys
	methodFreeze = "shard.freeze" // (epoch, keys) -> []          stop acking writes to moving keys
	methodPull   = "shard.pull"   // (epoch, keys) -> [kv map]    export moving keys
	methodPush   = "shard.push"   // (epoch, kv map) -> []        import moved keys at the new owner
	methodTable  = "shard.table"  // (epoch, vnodes, members...)  commit the new ring, unfreeze
	methodDrop   = "shard.drop"   // (epoch, keys) -> []          discard moved keys at the old owner
)

// Store is the keyspace surface a sharded service must expose so its
// guard can enumerate and hand off key ranges. The per-key blobs are the
// store's own encoding — the shard layer never interprets them.
type Store interface {
	core.Service
	// Keys enumerates every key currently held.
	Keys() []string
	// ExportKeys encodes the named keys' state (missing keys are simply
	// absent from the result).
	ExportKeys(keys []string) (map[string][]byte, error)
	// ImportKeys installs handed-off keys, overwriting existing state
	// (pushes are retried, so this must be idempotent).
	ImportKeys(kvs map[string][]byte) error
	// DropKeys discards the named keys (idempotent).
	DropKeys(keys []string) error
}

// ErrNotStore reports a guarded service that cannot hand off keys.
var ErrNotStore = errors.New("shard: service does not implement shard.Store")

// Guard wraps one member's store with the shard's ownership discipline.
// It sits *below* the member's own proxy factory — for a replica-backed
// member it is the replicated state machine — so its fencing state rides
// the member's replication, WAL, and crash-recovery machinery.
//
// Rules, in table-epoch order:
//
//   - epoch 0 (no table yet): every invocation passes — bootstrap load
//     before the router commits the first table;
//   - single-key methods for keys this member does not own under the
//     current ring are refused with core.CodeMisroute (in a batch, that
//     key's slot carries the refusal);
//   - keys frozen by an in-flight rebalance refuse writes and reads with
//     core.CodeUnavailable until the new table commits;
//   - reserved shard.* methods carrying an epoch at or below the
//     guard's current epoch are refused with core.CodeFenced (a deposed
//     router attempt, or a replayed handoff step) — except shard.table
//     and shard.drop at the current epoch, which are idempotent.
type Guard struct {
	self string
	spec Spec

	inner  Store
	single map[string]bool

	// tab dedups session-stamped invocations. Single-key entries are tagged
	// by key so a rebalance carries them to the key's new owner (the
	// shard.pull reply ships the blob; shard.push imports it). Ownership
	// is checked BEFORE the dedup consult, so an entry for a key this
	// member no longer owns can never answer a misrouted retry. Batch
	// entries are untagged and answer only a retransmitted batch (see
	// invokeBatch).
	tab *session.Table

	mu     sync.Mutex
	epoch  uint64
	ring   *Ring
	frozen map[string]bool
}

// NewGuard wraps inner as member self of a sharded service. For
// replica-backed members, construct the guard inside the replica
// factory's constructor so every replica of the member carries the same
// guard; inner must then also implement replica.StateMachine.
func NewGuard(self string, spec Spec, inner Store) *Guard {
	return &Guard{
		self: self, spec: spec, inner: inner, single: spec.singleSet(),
		tab: session.NewTable(session.Config{}),
	}
}

// Inner exposes the wrapped store (tests and audits).
func (g *Guard) Inner() Store { return g.inner }

// Epoch reports the last committed table epoch (0 before the first).
func (g *Guard) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Invoke implements core.Service.
func (g *Guard) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	switch method {
	case methodKeys, methodFreeze, methodPull, methodPush, methodTable, methodDrop:
		return g.invokeReserved(method, args)
	}
	if g.single[method] {
		if len(args) > 0 {
			if elems, ok := args[0].([]any); ok {
				if len(args) != 1 {
					return nil, core.BadArgs(method, "shard: a batch takes one argument, its element list")
				}
				return g.invokeBatch(ctx, method, elems)
			}
		}
		key, err := keyOf(method, args)
		if err != nil {
			return nil, err
		}
		if err := g.checkOwnership(method, key); err != nil {
			return nil, err
		}
		if sid, seq := core.SessionFromContext(ctx); sid != 0 {
			return g.invokeDeduped(ctx, sid, seq, key, method, args)
		}
	}
	return g.inner.Invoke(ctx, method, args)
}

// invokeBatch serves one owner's share of a multi-key operation: the
// mapped single-key method with one element per key, each a bare key or
// a key vector (see Spec). Ownership and freezing are checked per
// element, and each owned element runs through the store as its own
// single-key invocation. The reply is one result vector aligned with the
// elements; a key the table refuses (misroute, frozen) or the store
// fails carries its lowered KeyError in its slot, so the caller re-routes
// only those keys. A malformed element refuses the whole batch.
//
// A session-stamped batch is deduplicated as one unit: one Begin and one
// Commit over the whole result vector. Its identity was minted for this
// batch alone, so the entry is not key-tagged and stays here across a
// rebalance — a retransmission of the batch can only come back to the
// member that executed it.
func (g *Guard) invokeBatch(ctx context.Context, method string, elems []any) ([]any, error) {
	for _, e := range elems {
		if _, _, err := splitElem(method, e); err != nil {
			return nil, err
		}
	}
	sid, seq := core.SessionFromContext(ctx)
	if sid != 0 {
		if results, done, err := g.begin(method, sid, seq); done {
			return results, err
		}
	}
	// One array holds the result list and, in its last slot, the reply
	// vector that carries it (+1.8 allocs/op on the shard-scatter
	// benchmark workload as two; see route.go).
	buf := make([]any, len(elems)+1)
	vals, results := buf[:len(elems):len(elems)], buf[len(elems):]
	for j, e := range elems {
		key, args, _ := splitElem(method, e)
		if args == nil {
			args = elems[j : j+1 : j+1] // a bare key is its own argument vector
		}
		if err := g.checkOwnership(method, key); err != nil {
			vals[j] = (&KeyError{Key: key, Err: err}).lower()
			continue
		}
		res, err := g.inner.Invoke(ctx, method, args)
		switch {
		case err != nil:
			vals[j] = (&KeyError{Key: key, Err: err}).lower()
		case len(res) > 0:
			vals[j] = res[0]
		}
	}
	results[0] = vals
	if sid != 0 {
		// The generic encoding, not Marshal: Marshal would reflect over a
		// refused slot's *codec.Struct as a Go struct, and the replay would
		// no longer read as a KeyError.
		blob, err := codec.Append(nil, results)
		if err != nil {
			g.tab.Abort(sid, seq)
			return results, nil
		}
		g.tab.Commit(sid, seq, wire.KindReply, false, blob)
	}
	return results, nil
}

// begin presents a stamped invocation to the guard's exactly-once table.
// done reports that the verdict answers the invocation — a replay from
// the cached reply (reconstructed via codec.Unmarshal, so no runtime
// machinery is needed here) or a refusal — and that nothing may execute.
func (g *Guard) begin(method string, sid, seq uint64) (results []any, done bool, err error) {
	switch verdict, ent := g.tab.Begin(sid, seq); verdict {
	case session.Replay:
		if ent.IsErr {
			return nil, true, core.DecodeInvokeError(ent.Payload)
		}
		if err := codec.Unmarshal(ent.Payload, &results); err != nil {
			return nil, true, core.Errorf(core.CodeInternal, method, "shard: replay decode: %s", err)
		}
		return results, true, nil
	case session.InFlight:
		// The guard cannot block on the original execution; refuse
		// retryably and let the client re-present the identity.
		return nil, true, core.Errorf(core.CodeUnavailable, method, "shard: duplicate of an in-flight invocation")
	case session.Expired:
		return nil, true, core.Errorf(core.CodeSessionExpired, method, "session expired: retry outlived the dedup window; outcome unknown")
	}
	return nil, false, nil
}

// invokeDeduped runs one session-stamped single-key invocation through
// the guard's exactly-once table: a replay or refusal is answered by
// begin, and a fresh identity executes and commits key-tagged so a
// rebalance hands the entry to the key's next owner.
func (g *Guard) invokeDeduped(ctx context.Context, sid, seq uint64, key, method string, args []any) ([]any, error) {
	if results, done, err := g.begin(method, sid, seq); done {
		return results, err
	}
	results, err := g.inner.Invoke(ctx, method, args)
	if err != nil {
		g.tab.CommitKeyed(sid, seq, key, wire.KindError, true, core.EncodeInvokeError(method, err))
		return nil, err
	}
	blob, merr := codec.Marshal(results)
	if merr != nil {
		// Un-cacheable reply: release the mark rather than caching garbage.
		g.tab.Abort(sid, seq)
		return results, nil
	}
	g.tab.CommitKeyed(sid, seq, key, wire.KindReply, false, blob)
	return results, nil
}

// checkOwnership applies the routing table to one key.
func (g *Guard) checkOwnership(method, key string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.epoch == 0 {
		return nil
	}
	if g.frozen[key] {
		return core.Errorf(core.CodeUnavailable, method, "shard: key %q is migrating", key)
	}
	if owner := g.ring.Owner(key); owner != g.self {
		return core.Errorf(core.CodeMisroute, method,
			"shard: key %q belongs to %q, not %q (epoch %d)", key, owner, g.self, g.epoch)
	}
	return nil
}

func (g *Guard) invokeReserved(method string, args []any) ([]any, error) {
	epoch, rest, err := reservedEpoch(method, args)
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch method {
	case methodTable:
		// Commit: adopt any table at or past the current epoch (idempotent
		// re-commit included) and thaw — the moved ranges are now governed
		// by ownership, not freezing.
		if epoch < g.epoch {
			return nil, g.fenced(method, epoch)
		}
		vnodes, members, err := decodeTableArgs(method, rest)
		if err != nil {
			return nil, err
		}
		g.epoch = epoch
		g.ring = NewRing(members, vnodes)
		g.frozen = nil
		return nil, nil
	case methodDrop:
		// Post-commit cleanup at the old owner: same-epoch by design.
		if epoch < g.epoch {
			return nil, g.fenced(method, epoch)
		}
		keys, err := decodeKeyList(method, rest)
		if err != nil {
			return nil, err
		}
		return nil, g.inner.DropKeys(keys)
	}
	// keys/freeze/pull/push always carry the epoch under construction,
	// which must be strictly newer than anything this guard committed.
	if epoch <= g.epoch {
		return nil, g.fenced(method, epoch)
	}
	switch method {
	case methodKeys:
		held := g.inner.Keys()
		out := make([]any, len(held))
		for i, k := range held {
			out[i] = k
		}
		return []any{out}, nil
	case methodFreeze:
		keys, err := decodeKeyList(method, rest)
		if err != nil {
			return nil, err
		}
		g.frozen = make(map[string]bool, len(keys))
		for _, k := range keys {
			g.frozen[k] = true
		}
		return nil, nil
	case methodPull:
		keys, err := decodeKeyList(method, rest)
		if err != nil {
			return nil, err
		}
		kvs, err := g.inner.ExportKeys(keys)
		if err != nil {
			return nil, core.Errorf(core.CodeInternal, method, "shard: export keys: %s", err)
		}
		m := make(map[string]any, len(kvs))
		for k, v := range kvs {
			m[k] = v
		}
		// The moved keys' dedup entries travel with their state, so the
		// new owner keeps recognizing retries of writes this member
		// already applied. Empty (or absent, from an older guard) blobs
		// decode as no entries.
		return []any{m, g.tab.ExportKeys(keys)}, nil
	case methodPush:
		kvs, err := decodeKVMap(method, rest)
		if err != nil {
			return nil, err
		}
		if err := g.inner.ImportKeys(kvs); err != nil {
			return nil, core.Errorf(core.CodeInternal, method, "shard: import keys: %s", err)
		}
		// Optional trailing dedup blob (see methodPull). The blob may
		// carry entries for keys routed to other destinations too — the
		// router cannot filter an opaque blob — which is benign: ownership
		// is checked before the dedup consult, so a stray entry can never
		// answer a retry of a key this member does not own.
		if len(rest) > 1 {
			if blob, ok := rest[1].([]byte); ok {
				if err := g.tab.ImportBlob(blob); err != nil {
					return nil, core.Errorf(core.CodeInternal, method, "shard: import dedup: %s", err)
				}
			}
		}
		return nil, nil
	}
	return nil, core.NoSuchMethod(method)
}

func (g *Guard) fenced(method string, epoch uint64) error {
	return core.Errorf(core.CodeFenced, method,
		"shard: epoch %d is not newer than committed epoch %d at %q", epoch, g.epoch, g.self)
}

// Snapshot implements replica.StateMachine (by delegation): the guard's
// fencing state is part of the member's replicated state, so a
// crash-rejoined replica restores the table it must enforce, not just
// the data.
func (g *Guard) Snapshot() ([]byte, error) {
	sm, ok := g.inner.(snapshotter)
	if !ok {
		return nil, ErrNotStore
	}
	innerBlob, err := sm.Snapshot()
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	state := map[string]any{
		"epoch": g.epoch,
		"inner": innerBlob,
		"dedup": g.tab.Snapshot(),
	}
	if g.ring != nil {
		state["vnodes"] = int64(g.ring.VirtualNodes())
		members := g.ring.Members()
		ms := make([]any, len(members))
		for i, m := range members {
			ms[i] = m
		}
		state["members"] = ms
	}
	if len(g.frozen) > 0 {
		fs := make([]any, 0, len(g.frozen))
		for k := range g.frozen {
			fs = append(fs, k)
		}
		state["frozen"] = fs
	}
	g.mu.Unlock()
	return codec.Marshal(state)
}

// Restore implements replica.StateMachine (by delegation).
func (g *Guard) Restore(data []byte) error {
	sm, ok := g.inner.(snapshotter)
	if !ok {
		return ErrNotStore
	}
	var state map[string]any
	if err := codec.Unmarshal(data, &state); err != nil {
		return err
	}
	innerBlob, _ := state["inner"].([]byte)
	if err := sm.Restore(innerBlob); err != nil {
		return err
	}
	if dedup, ok := state["dedup"].([]byte); ok {
		_ = g.tab.Restore(dedup)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch = 0
	if e, ok := state["epoch"].(uint64); ok {
		g.epoch = e
	}
	g.ring, g.frozen = nil, nil
	if ms, ok := state["members"].([]any); ok {
		vnodes := 0
		if v, ok := state["vnodes"].(int64); ok {
			vnodes = int(v)
		}
		members := make([]string, 0, len(ms))
		for _, m := range ms {
			if s, ok := m.(string); ok {
				members = append(members, s)
			}
		}
		g.ring = NewRing(members, vnodes)
	}
	if fs, ok := state["frozen"].([]any); ok {
		g.frozen = make(map[string]bool, len(fs))
		for _, f := range fs {
			if s, ok := f.(string); ok {
				g.frozen[s] = true
			}
		}
	}
	return nil
}

// snapshotter matches replica.StateMachine's state half without
// importing the replica package (which would cycle through core).
type snapshotter interface {
	Snapshot() ([]byte, error)
	Restore(data []byte) error
}

// reservedEpoch decodes the leading epoch argument every reserved method
// carries.
func reservedEpoch(method string, args []any) (uint64, []any, error) {
	if len(args) == 0 {
		return 0, nil, core.BadArgs(method, "shard: missing epoch")
	}
	switch e := args[0].(type) {
	case int64:
		if e < 0 {
			return 0, nil, core.BadArgs(method, "shard: negative epoch")
		}
		return uint64(e), args[1:], nil
	case uint64:
		return e, args[1:], nil
	default:
		return 0, nil, core.BadArgs(method, "shard: epoch must be an integer")
	}
}

func decodeKeyList(method string, args []any) ([]string, error) {
	if len(args) == 0 {
		return nil, core.BadArgs(method, "shard: missing key list")
	}
	raw, ok := args[0].([]any)
	if !ok {
		return nil, core.BadArgs(method, "shard: key list must be a vector of strings")
	}
	keys := make([]string, 0, len(raw))
	for _, r := range raw {
		s, ok := r.(string)
		if !ok {
			return nil, core.BadArgs(method, "shard: key list must be a vector of strings")
		}
		keys = append(keys, s)
	}
	return keys, nil
}

func decodeKVMap(method string, args []any) (map[string][]byte, error) {
	if len(args) == 0 {
		return nil, core.BadArgs(method, "shard: missing key-value map")
	}
	raw, ok := args[0].(map[string]any)
	if !ok {
		return nil, core.BadArgs(method, "shard: pushed state must be a string map")
	}
	kvs := make(map[string][]byte, len(raw))
	for k, v := range raw {
		b, ok := v.([]byte)
		if !ok {
			return nil, core.BadArgs(method, "shard: pushed values must be byte blobs")
		}
		kvs[k] = b
	}
	return kvs, nil
}

func decodeTableArgs(method string, args []any) (int, []string, error) {
	if len(args) == 0 {
		return 0, nil, core.BadArgs(method, "shard: missing virtual-node count")
	}
	var vnodes int
	switch v := args[0].(type) {
	case int64:
		vnodes = int(v)
	case uint64:
		vnodes = int(v)
	default:
		return 0, nil, core.BadArgs(method, "shard: virtual-node count must be an integer")
	}
	members, err := decodeKeyList(method, args[1:])
	if err != nil {
		return 0, nil, err
	}
	return vnodes, members, nil
}
