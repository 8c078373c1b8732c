package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setups is how many times a run builds and warms its deployment; setup_s
// is the median, and the first deployment is the one measured.
const setups = 9

// rig is a built, warmed deployment with its callers' models and op
// cursors.
type rig struct {
	w      spec
	in     *inputs
	d      *deployment
	models []model
	cursor []int
	p      *probe
	wrong  error // first wrong reply seen while setting up
}

// setUp builds w's deployment, preloads it and warms it up in the
// measured shape: every caller runs its warm-up ops concurrently, so
// the coalescer's burst detector latches, caches fill and replica
// bootstrap and shard tables are done before timing.
func setUp(w spec, in *inputs, p *probe) (*rig, error) {
	d, err := build(w, in, p)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	r := &rig{w: w, in: in, d: d, p: p, models: make([]model, w.callers), cursor: make([]int, w.callers)}
	for c := range r.models {
		r.models[c] = newModel(w, in, c)
	}
	res := r.drive(time.Time{}, w.warmOps)
	for _, c := range res.callers {
		if len(c.errs) > 0 {
			d.close()
			return nil, fmt.Errorf("warm-up of %s: %w", w.name, c.errs[0])
		}
		if c.wrong != nil && r.wrong == nil {
			r.wrong = fmt.Errorf("warm-up: %w", c.wrong)
		}
	}
	return r, nil
}

// timedSetUp is setUp on the clock. Garbage is collected off the clock
// first, so every set-up starts from the same heap.
func timedSetUp(w spec, in *inputs) (*rig, float64, error) {
	runtime.GC()
	start := time.Now()
	r, err := setUp(w, in, nil)
	return r, time.Since(start).Seconds(), err
}

// moreSetUps sets w's deployment up n times, tearing each one down, and
// returns their set-up times and the first wrong reply of their warm-ups.
// They run after the measured phase: the replica and shard status
// registries keep a runtime reachable after it is closed, so deployments
// torn down before the phase would stay in the live heap it samples.
func moreSetUps(w spec, in *inputs, n int) (times []float64, wrong, err error) {
	for i := 0; i < n; i++ {
		r, t, err := timedSetUp(w, in)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		if wrong == nil {
			wrong = r.wrong
		}
		r.d.close()
	}
	return times, wrong, nil
}

// windowLen is the length of a measurement window. Time metrics are
// computed per window and reported as the median over windows, so a
// few slow seconds of a shared host do not move them.
const windowLen = time.Second

// window holds one caller's latencies of ops that completed in one
// window of a phase.
type window struct{ read, write hist }

// callerResult is what one caller saw during a phase.
type callerResult struct {
	wins      []window
	attempted int
	failed    int
	wrong     error // first reply that disagreed with the model
	errs      []error
}

type phaseResult struct {
	callers []callerResult
	start   time.Time
	elapsed time.Duration
	full    int             // windows that lie wholly inside the phase
	cpu     []time.Duration // process CPU time per full window
}

func (pr phaseResult) totals() (attempted, failed, completed int) {
	for _, c := range pr.callers {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed, attempted - failed
}

// drive runs every caller's closed loop concurrently: each caller issues
// its next op only after the previous one returned. Callers stop at the
// deadline (when set) or after maxOps ops each (when positive). With a
// deadline, the process CPU time of every full window is sampled too.
func (r *rig) drive(deadline time.Time, maxOps int) phaseResult {
	nwin := 1
	if !deadline.IsZero() {
		nwin = int((time.Until(deadline)+windowLen/2)/windowLen) + 2
	}
	res := phaseResult{callers: make([]callerResult, r.w.callers), full: nwin - 2}
	for c := range res.callers {
		res.callers[c].wins = make([]window, nwin)
	}
	var wg sync.WaitGroup
	gate := make(chan struct{})
	var start time.Time
	for c := 0; c < r.w.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-gate
			r.callerLoop(c, &res.callers[c], start, deadline, maxOps)
		}(c)
	}
	start = time.Now()
	res.start = start
	close(gate)
	if res.full > 0 {
		res.cpu = sampleCPU(start, res.full)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// sampleCPU returns the process CPU time spent in each of n windows
// starting at start.
func sampleCPU(start time.Time, n int) []time.Duration {
	out := make([]time.Duration, n)
	prev := cpuTime()
	for k := range out {
		time.Sleep(time.Until(start.Add(time.Duration(k+1) * windowLen)))
		now := cpuTime()
		out[k] = now - prev
		prev = now
	}
	return out
}

func (r *rig) callerLoop(c int, cr *callerResult, begin, deadline time.Time, maxOps int) {
	// Invocations carry no deadline, as a plain caller's would not: a
	// deadline adds a budget header and a server-side timer to every
	// call. The watchdog in main bounds a wedged run instead.
	ctx := context.Background()
	ops := r.in.ops[c]
	px := r.d.objs[c]
	m := r.models[c]
	for n := 0; maxOps <= 0 || n < maxOps; n++ {
		o := &ops[r.cursor[c]%len(ops)]
		r.cursor[c]++
		var inv uint64
		if r.p != nil {
			inv = r.p.begin(c)
		}
		start := time.Now()
		err := execute(ctx, px, o, c, r.in, m)
		end := time.Now()
		if r.p != nil && r.p.armed.Load() {
			r.p.end(c, inv, o, start, end)
		}
		cr.attempted++
		switch {
		case errors.Is(err, errWrong):
			cr.failed++
			if cr.wrong == nil {
				cr.wrong = fmt.Errorf("caller %d op %d: %w", c, r.cursor[c]-1, err)
			}
		case err != nil:
			cr.failed++
			if len(cr.errs) < 4 {
				cr.errs = append(cr.errs, fmt.Errorf("caller %d op %d (%s): %w", c, r.cursor[c]-1, o.kind, err))
			}
		default:
			w := &cr.wins[min(int(end.Sub(begin)/windowLen), len(cr.wins)-1)]
			ns := uint32(min(end.Sub(start), time.Duration(math.MaxUint32)))
			if o.kind.isRead() {
				w.read.add(ns)
			} else {
				w.write.add(ns)
			}
		}
		if !deadline.IsZero() && end.After(deadline) {
			return
		}
	}
}

// process samples the whole process around a measured phase: CPU time,
// mallocs, GC cycles, and the highest heap-in-use and goroutine counts
// seen while it ran.
type process struct {
	cpu0, cpu1     time.Duration
	mallocs, gcs   uint64
	heap           []heapSample
	peakGoroutines int

	ms0              runtime.MemStats
	stop, done       chan struct{}
	sampledGoroutine atomic.Int64
}

// heapSample is one reading of the live heap.
type heapSample struct {
	at    time.Time
	bytes uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap reads the heap the last garbage collection marked live,
// without stopping the world. Heap in use also counts garbage not yet
// collected, so its peak depends on where the collector happened to be.
func liveHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapEvery is how often the live heap is sampled while measuring.
const heapEvery = 20 * time.Millisecond

func startProcess() *process {
	pr := &process{stop: make(chan struct{}), done: make(chan struct{})}
	pr.heap = make([]heapSample, 0, 4096)
	runtime.ReadMemStats(&pr.ms0)
	pr.cpu0 = cpuTime()
	go pr.sample()
	return pr
}

func (pr *process) sample() {
	defer close(pr.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	t := time.NewTicker(heapEvery)
	defer t.Stop()
	for {
		pr.heap = append(pr.heap, heapSample{time.Now(), liveHeap(s)})
		if g := int64(runtime.NumGoroutine()); g > pr.sampledGoroutine.Load() {
			pr.sampledGoroutine.Store(g)
		}
		select {
		case <-pr.stop:
			return
		case <-t.C:
		}
	}
}

func (pr *process) finish() {
	pr.cpu1 = cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	close(pr.stop)
	<-pr.done
	pr.mallocs = ms.Mallocs - pr.ms0.Mallocs
	pr.gcs = uint64(ms.NumGC - pr.ms0.NumGC)
	pr.peakGoroutines = int(pr.sampledGoroutine.Load())
}

// peakHeap is the highest live heap sampled in each full window of ph,
// as the median over windows.
func (pr *process) peakHeap(ph phaseResult) float64 {
	peaks := make([]float64, max(ph.full, 1))
	for _, h := range pr.heap {
		k := int(h.at.Sub(ph.start) / windowLen)
		if k >= 0 && k < len(peaks) {
			peaks[k] = max(peaks[k], float64(h.bytes))
		}
	}
	return median(peaks)
}

// windowOps is how many ops completed in window k, over all callers.
func (pr phaseResult) windowOps(k int) int {
	n := 0
	for _, c := range pr.callers {
		n += c.wins[k].read.n + c.wins[k].write.n
	}
	return n
}

// windowed returns the median over the phase's full windows of
// f(window index); a phase too short for a full window uses window 0.
func (pr phaseResult) windowed(f func(k int) float64) float64 {
	var vals []float64
	for k := 0; k < max(pr.full, 1); k++ {
		vals = append(vals, f(k))
	}
	return median(vals)
}

// latency is the q-quantile of the latencies sel picks, computed over
// consecutive groups of full windows that hold at least minN samples
// each, and reported as the median over groups. It also returns the
// sample count and the number of groups.
func (pr phaseResult) latency(sel func(w *window) []*hist, q float64, minN int) (float64, int, int) {
	var vals []float64
	var group, all hist
	for k := 0; k < max(pr.full, 1); k++ {
		for _, c := range pr.callers {
			for _, h := range sel(&c.wins[k]) {
				group.merge(h)
				all.merge(h)
			}
		}
		if group.n >= minN {
			vals = append(vals, group.quantile(q))
			group = hist{}
		}
	}
	if len(vals) == 0 {
		return all.quantile(q), all.n, 1
	}
	return median(vals), all.n, len(vals)
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianInt64(xs []int64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}
