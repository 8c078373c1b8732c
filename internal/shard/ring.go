// Package shard implements the partitioned smart proxy: a service's
// keyspace is consistent-hashed across member shards (each an ordinary
// export — plain or replica-backed), and the proxy routes every
// single-key invocation to the owning shard while splitting multi-key
// operations into one batch per owning shard, sent in parallel
// (scatter-gather). The client cannot tell a
// sharded proxy from a stub — identical Invoke interface — which is the
// paper's point: partitioning is the service's private distribution
// strategy, shipped inside its proxy.
//
// Topology: one Router (exported under the shard type) owns the
// authoritative routing table — an epoch-numbered consistent-hash ring
// over the member names. Each member export wraps its store in a Guard
// that enforces the table: invocations for keys the member does not own
// are refused with core.CodeMisroute (the sender's table is stale — it
// refetches and re-routes), and requests carrying an older epoch than
// the guard has seen are refused with core.CodeFenced. Membership
// changes rebalance under a fresh epoch: moved key ranges are frozen at
// the source, pulled, pushed to their new owners, and only then is the
// new table committed to every guard — so a write is either acked under
// the old table (and therefore travels with the moved range) or retried
// by its client against the new owner. Guards reached through a replica
// group get all of this as ordered, WAL-logged writes, which is what
// makes handoff survive a shard-owner crash mid-rebalance.
//
// Exactly-once (core.WithSessions) covers each sub-invocation, not a
// multi-key call as a whole. A single-key invocation forwards the
// caller's (sid, seq) identity to its owner unchanged, so a retry is
// recognized there, or at the key's next owner after a handoff. A
// multi-key invocation drops the caller's identity: each per-owner batch
// gets a fresh one from the member's proxy, and its Guard dedups the
// batch as one unit. A multi-key write retried as a whole is therefore a
// new invocation; only each batch's own retransmissions are
// deduplicated.
package shard

import (
	"fmt"
	"sort"
)

// DefaultVirtualNodes is the ring's default virtual-node count per
// member. More virtual nodes smooth the key distribution at the cost of
// a larger table.
const DefaultVirtualNodes = 64

// Ring is an immutable consistent-hash ring: each member contributes
// vnodes points on a 64-bit circle, and a key belongs to the member of
// the first point at or after the key's hash (wrapping around). Rings
// built from the same member set and vnode count are identical
// everywhere — routers, guards, and proxies never exchange the ring
// itself, only (epoch, members, vnodes).
type Ring struct {
	vnodes  int
	members []string
	points  []ringPoint
}

type ringPoint struct {
	h      uint64
	member string
}

// NewRing builds the ring for a member set. Order of members does not
// matter; duplicates are ignored. A nil or empty member set yields a
// ring that owns nothing.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{h: hashKey(fmt.Sprintf("%s#%d", m, v)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Owner reports which member owns key; "" when the ring is empty.
func (r *Ring) Owner(key string) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wraparound: past the last point, the first owns it
	}
	return r.points[i].member
}

// Members reports the ring's member set (sorted, deduplicated).
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.members...)
}

// VirtualNodes reports the ring's per-member virtual-node count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// Has reports whether member is on the ring.
func (r *Ring) Has(member string) bool {
	if r == nil {
		return false
	}
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// hashKey is 64-bit FNV-1a with an avalanche finalizer, inlined so the
// ring has no hasher allocation per lookup. Raw FNV mixes the high bits
// poorly for short, similar strings (exactly what member vnode labels
// and sequential keys are), which skews the point distribution; the
// finalizer (the 64-bit murmur fmix) spreads every input bit across the
// whole circle.
func hashKey(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
