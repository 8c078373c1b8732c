package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
)

// kvStore is the test keyspace: a string→int64 map implementing Store
// and the replica state-machine surface.
type kvStore struct {
	mu   sync.Mutex
	m    map[string]int64
	gets map[string]int // get invocations per key
}

func newKVStore() *kvStore { return &kvStore{m: make(map[string]int64), gets: make(map[string]int)} }

func (s *kvStore) Invoke(_ context.Context, method string, args []any) ([]any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch method {
	case "get":
		k, _ := args[0].(string)
		s.gets[k]++
		return []any{s.m[k]}, nil
	case "put":
		k, _ := args[0].(string)
		v, _ := args[1].(int64)
		s.m[k] = v
		return []any{v}, nil
	case "fail":
		// Fails only for "bad-" keys, so multi-key tests can exercise
		// partial failure in one fan-out.
		k, _ := args[0].(string)
		if strings.HasPrefix(k, "bad-") {
			return nil, core.Errorf(core.CodeApp, method, "induced failure for %q", k)
		}
		return []any{s.m[k]}, nil
	default:
		return nil, core.NoSuchMethod(method)
	}
}

func (s *kvStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *kvStore) ExportKeys(keys []string) (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok := s.m[k]; ok {
			b, err := codec.Marshal(v)
			if err != nil {
				return nil, err
			}
			out[k] = b
		}
	}
	return out, nil
}

func (s *kvStore) ImportKeys(kvs map[string][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, b := range kvs {
		var v int64
		if err := codec.Unmarshal(b, &v); err != nil {
			return err
		}
		s.m[k] = v
	}
	return nil
}

func (s *kvStore) DropKeys(keys []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		delete(s.m, k)
	}
	return nil
}

func (s *kvStore) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return codec.Marshal(s.m)
}

func (s *kvStore) Restore(data []byte) error {
	var m map[string]int64
	if err := codec.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		m = make(map[string]int64)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = m
	return nil
}

// getCount reports how many times get ran for k.
func (s *kvStore) getCount(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets[k]
}

func (s *kvStore) get(k string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	return v, ok
}

var testSpec = Spec{
	SingleKey: []string{"get", "put", "fail"},
	MultiKey:  map[string]string{"mget": "get", "mput": "put", "mfail": "fail"},
}

func invokeCode(t *testing.T, err error, want core.Code) {
	t.Helper()
	var ie *core.InvokeError
	if !errors.As(err, &ie) {
		t.Fatalf("error = %v, want InvokeError code %v", err, want)
	}
	if ie.Code != want {
		t.Fatalf("code = %v, want %v (err: %v)", ie.Code, want, ie)
	}
}

// ownedKey finds a key the ring assigns to member.
func ownedKey(t *testing.T, r *Ring, member string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("ok-%d", i)
		if r.Owner(k) == member {
			return k
		}
	}
	t.Fatal("no key found for member")
	return ""
}

// notOwnedKey finds a key the ring assigns to someone else.
func notOwnedKey(t *testing.T, r *Ring, member string) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("nk-%d", i)
		if r.Owner(k) != member {
			return k
		}
	}
	t.Fatal("every key belongs to the member")
	return ""
}

func commitTable(t *testing.T, g *Guard, epoch uint64, members ...string) {
	t.Helper()
	ms := make([]any, len(members))
	for i, m := range members {
		ms[i] = m
	}
	if _, err := g.Invoke(context.Background(), methodTable, []any{int64(epoch), int64(16), ms}); err != nil {
		t.Fatalf("commit table: %v", err)
	}
}

func TestGuardEpochZeroAcceptsEverything(t *testing.T) {
	g := NewGuard("m0", testSpec, newKVStore())
	if _, err := g.Invoke(context.Background(), "put", []any{"anything", int64(1)}); err != nil {
		t.Fatalf("pre-table write refused: %v", err)
	}
}

func TestGuardMisrouteAndOwnership(t *testing.T) {
	ctx := context.Background()
	g := NewGuard("m0", testSpec, newKVStore())
	commitTable(t, g, 1, "m0", "m1")
	ring := NewRing([]string{"m0", "m1"}, 16)

	mine := ownedKey(t, ring, "m0")
	if _, err := g.Invoke(ctx, "put", []any{mine, int64(7)}); err != nil {
		t.Fatalf("owned write refused: %v", err)
	}
	theirs := notOwnedKey(t, ring, "m0")
	_, err := g.Invoke(ctx, "put", []any{theirs, int64(7)})
	invokeCode(t, err, core.CodeMisroute)
	_, err = g.Invoke(ctx, "get", []any{theirs})
	invokeCode(t, err, core.CodeMisroute)
}

func TestGuardFreezeBlocksThenTableThaws(t *testing.T) {
	ctx := context.Background()
	g := NewGuard("m0", testSpec, newKVStore())
	commitTable(t, g, 1, "m0")
	ring := NewRing([]string{"m0"}, 16)
	k := ownedKey(t, ring, "m0")
	if _, err := g.Invoke(ctx, "put", []any{k, int64(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Invoke(ctx, methodFreeze, []any{int64(2), []any{k}}); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	_, err := g.Invoke(ctx, "put", []any{k, int64(2)})
	invokeCode(t, err, core.CodeUnavailable)
	// Commit (same member set, new epoch): thawed and owned again.
	commitTable(t, g, 2, "m0")
	if _, err := g.Invoke(ctx, "put", []any{k, int64(3)}); err != nil {
		t.Fatalf("post-thaw write refused: %v", err)
	}
}

func TestGuardEpochFencing(t *testing.T) {
	ctx := context.Background()
	g := NewGuard("m0", testSpec, newKVStore())
	commitTable(t, g, 3, "m0")

	// Stale and same-epoch protocol steps are fenced...
	for _, epoch := range []int64{2, 3} {
		_, err := g.Invoke(ctx, methodFreeze, []any{epoch, []any{"k"}})
		invokeCode(t, err, core.CodeFenced)
		_, err = g.Invoke(ctx, methodPull, []any{epoch, []any{"k"}})
		invokeCode(t, err, core.CodeFenced)
		_, err = g.Invoke(ctx, methodKeys, []any{epoch})
		invokeCode(t, err, core.CodeFenced)
		_, err = g.Invoke(ctx, methodPush, []any{epoch, map[string]any{}})
		invokeCode(t, err, core.CodeFenced)
	}
	// ...a stale table is fenced, but a same-epoch re-commit is not
	// (idempotent), and drop works at the committed epoch.
	ms := []any{"m0"}
	_, err := g.Invoke(ctx, methodTable, []any{int64(2), int64(16), ms})
	invokeCode(t, err, core.CodeFenced)
	if _, err := g.Invoke(ctx, methodTable, []any{int64(3), int64(16), ms}); err != nil {
		t.Fatalf("idempotent re-commit refused: %v", err)
	}
	if _, err := g.Invoke(ctx, methodDrop, []any{int64(3), []any{"gone"}}); err != nil {
		t.Fatalf("same-epoch drop refused: %v", err)
	}
	_, err = g.Invoke(ctx, methodDrop, []any{int64(2), []any{"gone"}})
	invokeCode(t, err, core.CodeFenced)
}

func TestGuardHandoffRoundTrip(t *testing.T) {
	ctx := context.Background()
	src := NewGuard("m0", testSpec, newKVStore())
	dst := NewGuard("m1", testSpec, newKVStore())
	commitTable(t, src, 1, "m0")
	// Load the source at epoch 1 (it owns everything).
	for i := 0; i < 20; i++ {
		if _, err := src.Invoke(ctx, "put", []any{fmt.Sprintf("k%d", i), int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	newRing := NewRing([]string{"m0", "m1"}, 16)
	res, err := src.Invoke(ctx, methodKeys, []any{int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	held, err := resultKeyList(res)
	if err != nil {
		t.Fatal(err)
	}
	moved := make([]any, 0)
	for _, k := range held {
		if newRing.Owner(k) != "m0" {
			moved = append(moved, k)
		}
	}
	if len(moved) == 0 {
		t.Fatal("no keys to move — ring split failed")
	}
	if _, err := src.Invoke(ctx, methodFreeze, []any{int64(2), moved}); err != nil {
		t.Fatal(err)
	}
	res, err = src.Invoke(ctx, methodPull, []any{int64(2), moved})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := resultKVMap(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(moved) {
		t.Fatalf("pulled %d of %d moved keys", len(kvs), len(moved))
	}
	if _, err := dst.Invoke(ctx, methodPush, []any{int64(2), kvs}); err != nil {
		t.Fatal(err)
	}
	commitTable(t, src, 2, "m0", "m1")
	commitTable(t, dst, 2, "m0", "m1")
	if _, err := src.Invoke(ctx, methodDrop, []any{int64(2), moved}); err != nil {
		t.Fatal(err)
	}
	// Every moved key now lives at (only) the destination with its value.
	for _, mk := range moved {
		k := mk.(string)
		res, err := dst.Invoke(ctx, "get", []any{k})
		if err != nil {
			t.Fatalf("get %q at new owner: %v", k, err)
		}
		if _, held := src.Inner().(*kvStore).get(k); held {
			t.Errorf("moved key %q still held at the old owner", k)
		}
		var want int64
		fmt.Sscanf(k, "k%d", &want)
		if res[0] != want {
			t.Errorf("moved key %q = %v, want %d", k, res[0], want)
		}
	}
}

func TestGuardSnapshotRestoreCarriesFencingState(t *testing.T) {
	ctx := context.Background()
	g := NewGuard("m0", testSpec, newKVStore())
	commitTable(t, g, 4, "m0", "m1")
	if _, err := g.Invoke(ctx, methodFreeze, []any{int64(5), []any{"frozen-k"}}); err != nil {
		t.Fatal(err)
	}
	ring := NewRing([]string{"m0", "m1"}, 16)
	k := ownedKey(t, ring, "m0")
	if _, err := g.Invoke(ctx, "put", []any{k, int64(9)}); err != nil {
		t.Fatal(err)
	}

	blob, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGuard("m0", testSpec, newKVStore())
	if err := g2.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if g2.Epoch() != 4 {
		t.Fatalf("restored epoch = %d, want 4", g2.Epoch())
	}
	// Data survived.
	res, err := g2.Invoke(ctx, "get", []any{k})
	if err != nil || res[0] != int64(9) {
		t.Fatalf("restored get = %v, %v", res, err)
	}
	// Ownership discipline survived.
	_, err = g2.Invoke(ctx, "put", []any{notOwnedKey(t, ring, "m0"), int64(1)})
	invokeCode(t, err, core.CodeMisroute)
	// The freeze survived.
	_, err = g2.Invoke(ctx, "put", []any{"frozen-k", int64(1)})
	invokeCode(t, err, core.CodeUnavailable)
	// Old-epoch protocol steps stay fenced after restore.
	_, err = g2.Invoke(ctx, methodKeys, []any{int64(4)})
	invokeCode(t, err, core.CodeFenced)
}

// batchSlot reads slot j of a batch reply, failing on a malformed reply.
func batchSlot(t *testing.T, res []any, j int) any {
	t.Helper()
	if len(res) != 1 {
		t.Fatalf("batch reply has %d results, want 1", len(res))
	}
	vals, ok := res[0].([]any)
	if !ok || j >= len(vals) {
		t.Fatalf("batch reply = %v, want a result list", res)
	}
	return vals[j]
}

func keyErrorCode(t *testing.T, v any, key string, want core.Code) {
	t.Helper()
	ke, ok := AsKeyError(v)
	if !ok {
		t.Fatalf("slot = %v, want a KeyError", v)
	}
	if ke.Key != key {
		t.Errorf("KeyError names %q, want %q", ke.Key, key)
	}
	var ie *core.InvokeError
	if !errors.As(ke, &ie) || ie.Code != want {
		t.Errorf("KeyError = %v, want code %v", ke, want)
	}
}

// TestGuardBatchChecksEachElement: a batch is checked key by key — an
// owned key runs, a misrouted or frozen one gets its refusal in its own
// slot, and the batch as a whole succeeds.
func TestGuardBatchChecksEachElement(t *testing.T) {
	ctx := context.Background()
	st := newKVStore()
	g := NewGuard("m0", testSpec, st)
	commitTable(t, g, 1, "m0", "m1")
	ring := NewRing([]string{"m0", "m1"}, 16)
	mine, theirs := ownedKey(t, ring, "m0"), notOwnedKey(t, ring, "m0")
	var frozen string
	for i := 0; frozen == ""; i++ {
		if k := fmt.Sprintf("fz-%d", i); ring.Owner(k) == "m0" {
			frozen = k
		}
	}
	if _, err := g.Invoke(ctx, methodFreeze, []any{int64(2), []any{frozen}}); err != nil {
		t.Fatal(err)
	}
	res, err := g.Invoke(ctx, "put", []any{[]any{
		[]any{mine, int64(7)}, []any{theirs, int64(8)}, []any{frozen, int64(9)},
	}})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if v := batchSlot(t, res, 0); v != int64(7) {
		t.Errorf("owned slot = %v, want 7", v)
	}
	keyErrorCode(t, batchSlot(t, res, 1), theirs, core.CodeMisroute)
	keyErrorCode(t, batchSlot(t, res, 2), frozen, core.CodeUnavailable)
	if v, ok := st.get(mine); !ok || v != 7 {
		t.Errorf("owned key = %v, %v; want 7", v, ok)
	}
	for _, k := range []string{theirs, frozen} {
		if _, ok := st.get(k); ok {
			t.Errorf("refused key %q reached the store", k)
		}
	}
	// Bare keys read; a store failure stays in its slot.
	res, err = g.Invoke(ctx, "fail", []any{[]any{mine, "bad-" + mine}})
	if err != nil {
		t.Fatal(err)
	}
	if v := batchSlot(t, res, 0); v != int64(7) {
		t.Errorf("bare-key slot = %v, want 7", v)
	}
	keyErrorCode(t, batchSlot(t, res, 1), "bad-"+mine, core.CodeApp)
}

// TestGuardBatchRefusesMalformed: a batch whose elements are not keys or
// key vectors, or that carries more than its element list, is refused
// whole with CodeBadArgs before any element runs.
func TestGuardBatchRefusesMalformed(t *testing.T) {
	ctx := context.Background()
	st := newKVStore()
	g := NewGuard("m0", testSpec, st)
	for name, args := range map[string][]any{
		"non-key element":    {[]any{"a", int64(3)}},
		"empty key vector":   {[]any{"a", []any{}}},
		"non-string key":     {[]any{[]any{int64(1), int64(2)}}},
		"trailing arguments": {[]any{"a"}, "b"},
	} {
		_, err := g.Invoke(ctx, "get", args)
		if err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		invokeCode(t, err, core.CodeBadArgs)
	}
	if n := st.getCount("a"); n != 0 {
		t.Errorf("a malformed batch ran %d elements", n)
	}
}

// TestGuardBatchDedupsAsOneUnit: a stamped batch takes one dedup entry
// for its whole result vector; its retransmission is answered from that
// entry without running any element again.
func TestGuardBatchDedupsAsOneUnit(t *testing.T) {
	st := newKVStore()
	g := NewGuard("m0", testSpec, st)
	ctx := core.ContextWithSession(context.Background(), 0xBA7C, 1)
	res, err := g.Invoke(ctx, "put", []any{[]any{[]any{"x", int64(7)}, []any{"y", int64(9)}}})
	if err != nil {
		t.Fatal(err)
	}
	if batchSlot(t, res, 0) != int64(7) || batchSlot(t, res, 1) != int64(9) {
		t.Fatalf("batch = %v, want [7 9]", res)
	}
	// The same identity again — even with other values — is a
	// retransmission: the cached reply answers and the store is untouched.
	res, err = g.Invoke(ctx, "put", []any{[]any{[]any{"x", int64(1)}, []any{"y", int64(2)}}})
	if err != nil {
		t.Fatal(err)
	}
	if batchSlot(t, res, 0) != int64(7) || batchSlot(t, res, 1) != int64(9) {
		t.Fatalf("replayed batch = %v, want the cached [7 9]", res)
	}
	if x, _ := st.get("x"); x != 7 {
		t.Errorf("x = %d after replay, want 7", x)
	}
	if st := g.tab.Stats(); st.Hits != 1 {
		t.Errorf("dedup hits = %d, want 1", st.Hits)
	}
}

// TestGuardBatchReplayKeepsKeyErrors: a replayed batch answers from the
// cached reply, and the slots the table refused still read as KeyErrors
// with their codes, so the caller re-routes them instead of taking the
// refusal for a result.
func TestGuardBatchReplayKeepsKeyErrors(t *testing.T) {
	st := newKVStore()
	g := NewGuard("m0", testSpec, st)
	commitTable(t, g, 1, "m0", "m1")
	ring := NewRing([]string{"m0", "m1"}, 16)
	mine, theirs := ownedKey(t, ring, "m0"), notOwnedKey(t, ring, "m0")
	var frozen string
	for i := 0; frozen == ""; i++ {
		if k := fmt.Sprintf("fz-%d", i); ring.Owner(k) == "m0" && k != mine {
			frozen = k
		}
	}
	if _, err := g.Invoke(context.Background(), methodFreeze, []any{int64(2), []any{frozen}}); err != nil {
		t.Fatal(err)
	}
	ctx := core.ContextWithSession(context.Background(), 0xBA7D, 1)
	batch := []any{[]any{[]any{mine, int64(7)}, []any{theirs, int64(8)}, []any{frozen, int64(9)}}}
	for round := 0; round < 2; round++ {
		res, err := g.Invoke(ctx, "put", batch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if v := batchSlot(t, res, 0); v != int64(7) {
			t.Errorf("round %d: owned slot = %v, want 7", round, v)
		}
		keyErrorCode(t, batchSlot(t, res, 1), theirs, core.CodeMisroute)
		keyErrorCode(t, batchSlot(t, res, 2), frozen, core.CodeUnavailable)
	}
	if st := g.tab.Stats(); st.Hits != 1 {
		t.Errorf("dedup hits = %d, want 1 (the second round is a replay)", st.Hits)
	}
	for _, k := range []string{theirs, frozen} {
		if _, ok := st.get(k); ok {
			t.Errorf("refused key %q reached the store", k)
		}
	}
}
