// Command perfbench is the repository's benchmark of the proxy runtime.
// It builds one of four deployments in-process from the public
// constructors (TCP or simulated endpoints, train coalescing, kernel
// nodes, runtimes, failure detectors, and the cache, replica and shard
// factories), drives a seeded closed-loop workload through the proxies,
// checks every reply against a shadow model and prints the metrics.
//
//	go build -o perfbench . && ./perfbench --workload stub-serial --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced and prints the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The lines before it are
// a host block and a human-readable table with sample counts. README.md
// explains the workloads and which layer metric should move which
// end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// watchdog bounds a whole run; set-up and measurement take well under it.
const watchdog = 170 * time.Second

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or base, for the human-readable table
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func main() {
	name := flag.String("workload", "", "workload: stub-serial, stub-fanin8, smart-readmostly, shard-scatter or stub-fanin8-jitter")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || *seconds > 120 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	// A wedged deployment must fail the run, not hang it.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run did not finish within %v\n", watchdog)
		os.Exit(1)
	})
	in := generate(w, *seed)
	printHost(w, *seed)
	dur := time.Duration(*seconds) * time.Second
	var res result
	var err error
	inLine := func(name string) bool { return gated[name] }
	if *trace == 0 {
		res, err = endToEnd(w, in, dur)
	} else {
		res, err = traced(w, in, dur, *seed)
		inLine = func(string) bool { return true }
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printResult(res, inLine)
}

// gated names the end-to-end metrics the result line carries; the others
// are printed in the table with their sample counts, for comparing runs
// on one host. On a shared 2-vCPU host the timing metrics of one build
// spread between runs by 20% to over 100% of their median (the host's
// speed drifts over minutes, and stub-fanin8 switches between a fast and
// a slow mode from second to second), wider than any bound a regression
// gate can use, while allocations and live heap spread by under 3%.
var gated = map[string]bool{"setup_s": true, "allocs_per_op": true, "peak_heap_mb": true}

// endToEnd measures w untraced: one measured phase on the first
// deployment, then the median set-up time over it and the set-ups that
// follow.
func endToEnd(w spec, in *inputs, dur time.Duration) (result, error) {
	r, first, err := timedSetUp(w, in)
	if err != nil {
		return result{}, err
	}
	proc := startProcess()
	ph := r.drive(time.Now().Add(dur), 0)
	proc.finish()
	res := r.verdict(ph)
	r.d.close()
	setupTimes, wrong, err := moreSetUps(w, in, setups-1)
	if err != nil {
		return result{}, err
	}
	if wrong != nil {
		res.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: later set-up: %v\n", wrong)
	}
	setupTimes = append([]float64{first}, setupTimes...)
	_, _, completed := ph.totals()
	ops := float64(max(completed, 1))
	all := func(w *window) []*hist { return []*hist{&w.read, &w.write} }
	reads := func(w *window) []*hist { return []*hist{&w.read} }
	writes := func(w *window) []*hist { return []*hist{&w.write} }
	lat := func(name string, sel func(*window) []*hist, q float64) metric {
		// A window group needs 10 samples beyond the quantile.
		v, n, g := ph.latency(sel, q, int(10/(1-q)))
		return metric{name, v / 1e3, "us", fmt.Sprintf("n=%d, median of %d window groups", n, g)}
	}
	res.metrics = []metric{
		{"setup_s", median(setupTimes), "s", fmt.Sprintf("median of %d set-ups %.3v", len(setupTimes), setupTimes)},
		{"ops_per_s", ph.windowed(func(k int) float64 { return float64(ph.windowOps(k)) / windowLen.Seconds() }), "1/s",
			fmt.Sprintf("median of %d windows; %d ops in %.3fs", ph.full, completed, ph.elapsed.Seconds())},
		lat("p50_us", all, 0.50),
		lat("p99_us", all, 0.99),
		lat("read_p50_us", reads, 0.50),
		lat("read_p99_us", reads, 0.99),
		lat("write_p50_us", writes, 0.50),
		lat("write_p99_us", writes, 0.99),
		{"cpu_us_per_op", ph.windowed(func(k int) float64 {
			if k >= len(ph.cpu) {
				return float64(proc.cpu1-proc.cpu0) / 1e3 / ops
			}
			return float64(ph.cpu[k]) / 1e3 / float64(max(ph.windowOps(k), 1))
		}), "us", fmt.Sprintf("median of %d windows; %.3fs CPU in all", ph.full, (proc.cpu1 - proc.cpu0).Seconds())},
		{"allocs_per_op", float64(proc.mallocs) / ops, "allocs/op", fmt.Sprintf("%d mallocs", proc.mallocs)},
		{"peak_heap_mb", proc.peakHeap(ph) / (1 << 20), "MiB", fmt.Sprintf("live heap: median over %d windows of the peak of samples every %v", ph.full, heapEvery)},
	}
	fmt.Printf("fail_ratio = %g (%d of %d invocations returned an error or a wrong reply)\n", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	return res, nil
}

// verdict audits the deployment against the models and reports the
// phase's counts; a wrong reply, in set-up or in the phase, or a failed
// audit makes the run incorrect.
func (r *rig) verdict(ph phaseResult) result {
	res := result{correct: r.wrong == nil}
	res.attempted, res.failed, _ = ph.totals()
	if r.wrong != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", r.wrong)
	}
	for _, c := range ph.callers {
		if c.wrong != nil {
			res.correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", c.wrong)
		}
		for _, e := range c.errs {
			fmt.Fprintf(os.Stderr, "perfbench: invocation failed: %v\n", e)
		}
	}
	if err := r.d.audit(r.in, r.models); err != nil {
		res.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	return res
}

// printResult prints every metric in the table, then the result line
// with the metrics inLine selects.
func printResult(res result, inLine func(name string) bool) {
	for _, m := range res.metrics {
		fmt.Printf("%-30s %14.4f %-9s %s\n", m.name, m.value, m.unit, m.note)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		if inLine(m.name) {
			ms[m.name] = value{m.value, m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, max(res.attempted, 1), res.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printHost prints the host block: results from different hosts or
// builds must never be compared unlabeled.
func printHost(w spec, seed int64) {
	host := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernelRelease(),
		"commit":     sourceDigest(),
		"workload":   w.name,
		"seed":       seed,
	}
	b, _ := json.Marshal(host) // a map of strings and ints always marshals
	fmt.Printf("host %s\n", b)
	fmt.Printf("workload %s: %s\n", w.name, w.why)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var sb strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

// sourceDigest identifies the code under test: a SHA-256 over the
// module's Go sources and go.mod files beneath the working directory
// (the checkout root), since a checkout need not be a git repository.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
