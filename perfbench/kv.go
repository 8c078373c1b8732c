package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/shard"
)

// kv is the benchmark's service: a keyed store of byte-string values.
//
//	get(k string) -> []byte
//	put(k string, v []byte) -> int64 (len(v))
//	incr(k string) -> int64
//
// incr treats the first 8 bytes of the value as a big-endian counter and
// rewrites them, leaving the rest of the value in place, so reads observe
// increments and a value keeps its size. Stored values are never mutated
// in place: a local read (replica, bypass) may still hold the old slice.
//
// kv implements core.Service, replica.StateMachine and shard.Store. When
// probe is set (traced runs) every invocation records a handler span.
type kv struct {
	mu sync.Mutex
	m  map[string][]byte

	probe *probe
	role  role
}

// role names where a kv instance sits in a deployment, so traced handler
// time can be attributed to the layer that called it.
type role uint8

const (
	roleServer  role = iota // exported behind the stub or the cache coordinator
	rolePrimary             // replica primary's state machine
	roleMember              // a replica member's local copy
	roleShard               // a shard member's store, under its Guard
)

func newKV(p *probe, r role) *kv { return &kv{m: make(map[string][]byte), probe: p, role: r} }

var _ shard.Store = (*kv)(nil)

// kvReads lists the methods cache and replica proxies serve locally.
func kvReads() []string { return []string{"get"} }

// kvShardSpec routes get/put/incr by key; mget fans out one get per key.
func kvShardSpec() shard.Spec {
	return shard.Spec{
		SingleKey: []string{"get", "put", "incr"},
		MultiKey:  map[string]string{"mget": "get"},
	}
}

func (s *kv) Invoke(ctx context.Context, method string, args []any) ([]any, error) {
	if s.probe == nil {
		return s.invoke(method, args)
	}
	start := time.Now()
	res, err := s.invoke(method, args)
	key, _ := firstString(args)
	s.probe.handler(s.role, method, key, start, time.Now())
	return res, err
}

func (s *kv) invoke(method string, args []any) ([]any, error) {
	key, ok := firstString(args)
	if !ok {
		return nil, core.BadArgs(method, "want a string key first")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch method {
	case "get":
		return []any{s.m[key]}, nil
	case "put":
		if len(args) < 2 {
			return nil, core.BadArgs(method, "want (key, value)")
		}
		v, ok := args[1].([]byte)
		if !ok {
			return nil, core.BadArgs(method, fmt.Sprintf("value is %T, want []byte", args[1]))
		}
		s.m[key] = append([]byte(nil), v...)
		return []any{int64(len(v))}, nil
	case "incr":
		next, n := incremented(s.m[key])
		s.m[key] = next
		return []any{n}, nil
	default:
		return nil, core.NoSuchMethod(method)
	}
}

// incremented returns a copy of v with its leading counter advanced by
// one, and the new count. Values shorter than the counter are widened.
func incremented(v []byte) ([]byte, int64) {
	next := make([]byte, max(len(v), 8))
	copy(next, v)
	n := binary.BigEndian.Uint64(next) + 1
	binary.BigEndian.PutUint64(next, n)
	return next, int64(n)
}

func firstString(args []any) (string, bool) {
	if len(args) == 0 {
		return "", false
	}
	k, ok := args[0].(string)
	return k, ok
}

// Snapshot and Restore make kv a replica.StateMachine.
func (s *kv) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return codec.Marshal(s.m)
}

func (s *kv) Restore(data []byte) error {
	var m map[string][]byte
	if err := codec.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("perfbench: restore kv: %w", err)
	}
	if m == nil {
		m = make(map[string][]byte)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = m
	return nil
}

// Keys, ExportKeys, ImportKeys and DropKeys make kv a shard.Store. A
// key's handoff blob is its value.
func (s *kv) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *kv) ExportKeys(keys []string) (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok := s.m[k]; ok {
			out[k] = v
		}
	}
	return out, nil
}

func (s *kv) ImportKeys(kvs map[string][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range kvs {
		s.m[k] = append([]byte(nil), v...)
	}
	return nil
}

func (s *kv) DropKeys(keys []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		delete(s.m, k)
	}
	return nil
}

// contents copies the store's map (final audits).
func (s *kv) contents() map[string][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]byte, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}
