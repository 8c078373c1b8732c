package main

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/session"
	"repro/internal/wire"
)

// maxSpans bounds the spans a traced run writes out (whole invocations,
// earliest first), keeping the span file to a few megabytes.
const maxSpans = 100000

// counters snapshots the deployment's own counters around a phase.
type counters struct {
	invokes            uint64
	retransmits, fails uint64
	co                 wire.CoalescerStats
	sessHits, sessRepl uint64
	repLocal           uint64
	cacheHits, misses  uint64
	cacheInvs          uint64
	misroutes          uint64
}

func (d *deployment) counters() counters {
	var c counters
	for _, n := range d.nodes {
		c.invokes += n.rt.InvokeCount()
		st := n.rt.Client().Stats()
		c.retransmits += st.Retransmits
		c.fails += st.Failures
		cs := n.co.Stats()
		c.co.DirectSends += cs.DirectSends
		c.co.InlineSends += cs.InlineSends
		c.co.StagedFrames += cs.StagedFrames
		c.co.TrainsSent += cs.TrainsSent
		c.co.TrainFrames += cs.TrainFrames
		if n.sess != nil {
			ss := n.sess.Stats()
			c.sessHits += ss.Hits
			c.sessRepl += uint64(ss.Replies)
		}
	}
	for _, r := range d.replicas {
		local, _, _ := r.Stats()
		c.repLocal += local
	}
	for _, p := range d.caches {
		st := p.Stats()
		c.cacheHits += st.Hits
		c.misses += st.Misses
		c.cacheInvs += st.Invalidations
	}
	if d.sharded != nil {
		_, c.misroutes = d.sharded.Stats()
	}
	return c
}

// traced runs w twice on fresh deployments: untraced, then with the
// probe armed, each for half of dur. The per-layer metrics come from the
// traced phase; the untraced one only prices the tracing.
func traced(w spec, in *inputs, dur time.Duration, seed int64) (result, error) {
	r, err := setUp(w, in, nil)
	if err != nil {
		return result{}, err
	}
	plain := r.drive(time.Now().Add(dur/2), 0)
	plainRes := r.verdict(plain)
	r.d.close()
	_, _, plainDone := plain.totals()
	plainOps := float64(plainDone) / plain.elapsed.Seconds()

	p := newProbe(w.callers)
	r, err = setUp(w, in, p)
	if err != nil {
		return result{}, err
	}
	defer r.d.close()
	before := r.d.counters()
	cursor0 := slices.Clone(r.cursor)
	firstInv := p.invSeq.Load() + 1
	p.armed.Store(true)
	proc := startProcess()
	ph := r.drive(time.Now().Add(dur/2), 0)
	proc.finish()
	p.disarm()
	after := r.d.counters()
	res := r.verdict(ph)
	res.correct = res.correct && plainRes.correct
	res.attempted += plainRes.attempted
	res.failed += plainRes.failed

	_, _, completed := ph.totals()
	res.metrics = layerMetrics(r, p, ph, proc, before, after, completed, plainOps)
	res.metrics = append(res.metrics, codecMetrics(r, cursor0)...)
	slices.SortStableFunc(res.metrics, func(a, b metric) int { return strings.Compare(a.name, b.name) })

	spans := p.spans(r.d.callerNode)
	spans = slices.DeleteFunc(spans, func(s span) bool { return s.inv < firstInv })
	slices.SortStableFunc(spans, func(a, b span) int { return cmp.Compare(a.inv, b.inv) })
	if len(spans) > maxSpans {
		last := spans[maxSpans].inv
		spans = slices.DeleteFunc(spans, func(s span) bool { return s.inv >= last })
	}
	path := fmt.Sprintf(".bench_build/spans/%s-seed%d.tsv", w.name, seed)
	if err := writeSpans(path, spans); err != nil {
		fmt.Printf("spans not written: %v\n", err)
	} else {
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	}
	return res, nil
}

func usOf(ns float64) float64 { return ns / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics computes every per-layer metric but the codec ones.
func layerMetrics(r *rig, p *probe, ph phaseResult, proc *process, b, a counters, completed int, plainOps float64) []metric {
	ops := float64(max(completed, 1))
	secs := ph.elapsed.Seconds()
	tracedOps := float64(completed) / secs

	// Invocations issued per object and kind, for per-write ratios.
	var repGets, repWrites, cacheWrites float64
	invByID := make(map[uint64]invRec)
	for c := range p.invs {
		for _, iv := range p.invs[c] {
			invByID[iv.id] = iv
			if r.d.replicas != nil && iv.obj == 0 {
				if iv.kind == opGet {
					repGets++
				} else {
					repWrites++
				}
			}
			if r.d.caches != nil && iv.obj == 1 && iv.kind == opIncr {
				cacheWrites++
			}
		}
	}

	// Blocking-path pieces of every request a caller's node sent.
	type path struct{ first, last int64 }
	paths := make(map[uint64]path)
	var transitReq, transitRep, transitAll, ingress, reply []int64
	hands := p.handIndex()
	for _, f := range p.frames {
		if f.arrive > 0 {
			transitAll = append(transitAll, f.arrive-f.send)
		}
		if f.repArrive > 0 && f.repSend > 0 {
			transitAll = append(transitAll, f.repArrive-f.repSend)
		}
		if f.src != r.d.callerNode(f.caller) || f.arrive == 0 || f.repSend == 0 || f.repArrive == 0 {
			continue
		}
		transitReq = append(transitReq, f.arrive-f.send)
		transitRep = append(transitRep, f.repArrive-f.repSend)
		if h, ok := hands[handKey{f.inv, f.key}]; ok {
			ingress = append(ingress, h.start-f.arrive)
			reply = append(reply, f.repSend-h.end)
		}
		pt, seen := paths[f.inv]
		if !seen || f.send < pt.first {
			pt.first = f.send
		}
		if f.repArrive > pt.last {
			pt.last = f.repArrive
		}
		paths[f.inv] = pt
	}
	var client, remoteInv []int64
	for id, pt := range paths {
		iv, ok := invByID[id]
		if !ok {
			continue
		}
		client = append(client, (pt.first-iv.start)+(iv.end-pt.last))
		remoteInv = append(remoteInv, iv.end-iv.start)
	}

	var handler, apply, member []int64
	for _, h := range p.hands {
		d := h.end - h.start
		switch h.role {
		case roleServer, rolePrimary:
			handler = append(handler, d)
		case roleShard:
			handler = append(handler, d)
			member = append(member, d)
		}
		if h.isApply() {
			apply = append(apply, d)
		}
	}
	var walDur []int64
	for _, a := range p.walAppends {
		walDur = append(walDur, a.dur)
	}

	blocking := medianInt64(client) + medianInt64(transitReq) + medianInt64(ingress) +
		medianInt64(handler) + medianInt64(reply) + medianInt64(transitRep)
	unattributed := 0.0
	if len(remoteInv) > 0 {
		unattributed = usOf(medianInt64(remoteInv) - blocking)
	}

	co := wire.CoalescerStats{
		DirectSends:  a.co.DirectSends - b.co.DirectSends,
		InlineSends:  a.co.InlineSends - b.co.InlineSends,
		StagedFrames: a.co.StagedFrames - b.co.StagedFrames,
		TrainsSent:   a.co.TrainsSent - b.co.TrainsSent,
		TrainFrames:  a.co.TrainFrames - b.co.TrainFrames,
	}
	cacheReads := float64(a.cacheHits - b.cacheHits + a.misses - b.misses)
	n := func(k int) string { return fmt.Sprintf("n=%d", k) }
	return []metric{
		{"core.invokes_per_op", float64(a.invokes-b.invokes) / ops, "count", n(completed)},
		{"core.client_us", usOf(medianInt64(client)), "us", n(len(client))},
		{"kernel.ingress_us", usOf(medianInt64(ingress)), "us", n(len(ingress))},
		{"kernel.handler_us", usOf(medianInt64(handler)), "us", n(len(handler))},
		{"kernel.reply_us", usOf(medianInt64(reply)), "us", n(len(reply))},
		{"netsim.send_us", usOf(medianInt64(p.sends)), "us", n(len(p.sends))},
		{"netsim.transit_us", usOf(medianInt64(transitAll)), "us", n(len(transitAll))},
		{"wire.frames_per_op", float64(p.belowFrames.Load()) / ops, "count", n(completed)},
		{"wire.member_frames_per_op", float64(p.aboveFrames.Load()) / ops, "count", n(completed)},
		{"wire.bytes_per_op", float64(p.belowBytes.Load()) / ops, "B", n(completed)},
		{"wire.train_fill", co.AvgFill(), "count", fmt.Sprintf("trains=%d", co.TrainsSent)},
		{"wire.staged_share", ratio(float64(co.StagedFrames), float64(co.DirectSends+co.InlineSends+co.StagedFrames)), "ratio", fmt.Sprintf("staged=%d", co.StagedFrames)},
		{"rpc.retransmits_per_kop", float64(a.retransmits-b.retransmits) * 1e3 / ops, "count", n(completed)},
		{"rpc.failures", float64(a.fails - b.fails), "count", ""},
		{"session.cached_replies", float64(a.sessRepl), "count", "held at the end"},
		{"session.replays", float64(a.sessHits - b.sessHits), "count", ""},
		{"session.begin_commit_ns", sessionReplay(p), "ns", ""},
		{"replica.local_read_share", ratio(float64(a.repLocal-b.repLocal), repGets), "ratio", fmt.Sprintf("of %.0f replica reads", repGets)},
		{"replica.applies_per_write", ratio(float64(p.applies.Load()), repWrites), "count", fmt.Sprintf("of %.0f replica writes", repWrites)},
		{"replica.apply_us", usOf(medianInt64(apply)), "us", n(len(apply))},
		{"persist.appends_per_write", ratio(float64(p.walCount.Load()), repWrites), "count", fmt.Sprintf("%d appends", p.walCount.Load())},
		{"persist.append_bytes_per_write", ratio(float64(p.walBytes.Load()), repWrites), "B", ""},
		{"persist.append_us", usOf(medianInt64(walDur)), "us", n(len(walDur))},
		{"cache.hit_ratio", ratio(float64(a.cacheHits-b.cacheHits), cacheReads), "ratio", fmt.Sprintf("of %.0f cached reads", cacheReads)},
		{"cache.invalidations_per_write", ratio(float64(a.cacheInvs-b.cacheInvs), cacheWrites), "count", fmt.Sprintf("of %.0f cache writes", cacheWrites)},
		{"shard.subcalls_per_op", float64(p.shardCalls.Load()) / ops, "count", fmt.Sprintf("%d sub-invocations", p.shardCalls.Load())},
		{"shard.member_us", usOf(medianInt64(member)), "us", n(len(member))},
		{"shard.misroutes", float64(a.misroutes - b.misroutes), "count", ""},
		{"health.probe_frames_per_s", float64(p.pings.Load()) / secs, "1/s", ""},
		{"process.gc_per_kop", float64(proc.gcs) * 1e3 / ops, "count", fmt.Sprintf("%d GCs", proc.gcs)},
		{"process.goroutines_peak", float64(proc.peakGoroutines), "count", fmt.Sprintf("sampled every %v", heapEvery)},
		{"trace.unattributed_us", unattributed, "us", n(len(remoteInv))},
		{"trace.overhead_pct", ratio(plainOps-tracedOps, plainOps) * 100, "%", fmt.Sprintf("untraced %.0f/s, traced %.0f/s", plainOps, tracedOps)},
	}
}

// sessionReplay times session.Table Begin+Commit on a fresh table,
// replaying the (session, seq) stream the traced run carried with each
// request's reply size. It returns the median pair cost in ns.
func sessionReplay(p *probe) float64 {
	type rec struct {
		at       int64
		sid, seq uint64
		n        int
	}
	var recs []rec
	for _, f := range p.frames {
		if f.sid != 0 {
			recs = append(recs, rec{f.send, f.sid, f.seq, f.repLen})
		}
	}
	if len(recs) == 0 {
		return 0
	}
	slices.SortFunc(recs, func(a, b rec) int { return cmp.Compare(a.at, b.at) })
	tab := session.NewTable(session.Config{TTL: session.DefaultTTL})
	reply := make([]byte, 64<<10)
	ds := make([]int64, 0, len(recs))
	for _, r := range recs {
		start := time.Now()
		if v, _ := tab.Begin(r.sid, r.seq); v == session.Fresh {
			tab.Commit(r.sid, r.seq, wire.KindReply, false, reply[:min(r.n, len(reply))])
		}
		ds = append(ds, int64(time.Since(start)))
	}
	return medianInt64(ds)
}

// codecMetrics times codec.EncodeArgs and DecodeArgs on the arguments
// and results of the ops the traced phase issued (up to 5000 per
// caller), each op encoded and decoded codecReps times.
func codecMetrics(r *rig, cursor0 []int) []metric {
	const perCaller, codecReps = 5000, 4
	var enc, dec []int64
	var reqBytes, samples float64
	var d codec.Decoder
	for c := range cursor0 {
		ops := r.in.ops[c]
		for i := cursor0[c]; i < r.cursor[c] && i < cursor0[c]+perCaller; i++ {
			o := &ops[i%len(ops)]
			req, results := codecShape(r.in, c, o)
			start := time.Now()
			var rb, sb []byte
			for k := 0; k < codecReps; k++ {
				rb, _ = codec.EncodeArgs(req...)
				sb, _ = codec.EncodeArgs(results...)
			}
			mid := time.Now()
			for k := 0; k < codecReps; k++ {
				_, _ = d.DecodeArgs(rb)
				_, _ = d.DecodeArgs(sb)
			}
			enc = append(enc, int64(mid.Sub(start))/codecReps)
			dec = append(dec, int64(time.Since(mid))/codecReps)
			reqBytes += float64(len(rb))
			samples++
		}
	}
	n := fmt.Sprintf("n=%d", len(enc))
	return []metric{
		{"codec.encode_ns", medianInt64(enc), "ns", n},
		{"codec.decode_ns", medianInt64(dec), "ns", n},
		{"codec.request_bytes", ratio(reqBytes, samples), "B", n},
	}
}

// codecShape is an op's request vector (capability, method, arguments)
// and a representative result vector.
func codecShape(in *inputs, c int, o *op) (req, results []any) {
	key := in.keys[c][o.key]
	value := in.values[c][in.initial[c][o.key]]
	switch o.kind {
	case opPut:
		v := in.values[c][o.val]
		return []any{uint64(0), "put", key, v}, []any{int64(len(v))}
	case opIncr:
		return []any{uint64(0), "incr", key}, []any{int64(1)}
	case opMget:
		req = []any{uint64(0), "mget"}
		for _, k := range in.mgetKeys(c, o) {
			req = append(req, in.keys[c][k])
			results = append(results, in.values[c][in.initial[c][k]])
		}
		return req, results
	}
	return []any{uint64(0), "get", key}, []any{value}
}
