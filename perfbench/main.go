// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator, the custodyd service and the allocator only through their
// public functions, measures each layer from outside, and checks that what
// the program returned is correct. See README.md for the workloads and the
// metrics.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: with --trace 0 it
// carries the end-to-end metrics, with --trace 1 the per-layer metrics of a
// traced run. Spans and the CPU-profile attribution of a traced run are
// written under --out.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/workload"
)

// episode is one pass over a workload's input: set-up, the timed
// operations, and the checks on what the program returned.
type episode struct {
	setup     float64   // seconds
	ops       []float64 // milliseconds per operation
	jobs      int       // jobs completed during the timed operations
	heap      uint64    // live heap bytes right after the timed operations
	locality  float64
	attempted int
	failed    int
	input     int // which of the workload's inputs the episode replayed
	// digest fingerprints the program's results; episodes that replay one
	// input must agree on it.
	digest   string
	problems []string
	layers   map[string]float64 // traced episodes only
}

func (e *episode) problemf(format string, args ...any) {
	e.problems = append(e.problems, fmt.Sprintf(format, args...))
}

func (e *episode) opSeconds() float64 { return sum(e.ops) / 1000 }

// workloadDef is one benchmark workload. A run replays the workload's
// inputs round-robin, one per episode; episode runs a pass over the input
// the seed and the input number generate, with rec nil for untraced passes.
type workloadDef struct {
	name    string
	why     string
	op      string // what one timed operation is
	inputs  int
	episode func(seed uint64, input int, rec *recorder) (episode, error)
}

func workloads(tmpRoot string) []workloadDef {
	return []workloadDef{
		{
			name:   "sim-shuffle",
			why:    "paper testbed: Sort on 100 nodes, where the netsim fabric does most of the host work",
			op:     "one Driver.Run of 4 apps x 30 jobs",
			inputs: 2,
			episode: func(seed uint64, input int, rec *recorder) (episode, error) {
				return simEpisode(simSpec{kind: workload.Sort, nodes: 100, sched: driver.SchedDelay}, seed, input, rec)
			},
		},
		{
			name:   "sim-quincy",
			why:    "WordCount on 25 nodes under the Quincy scheduler, where scheduler replans and maxflow do most of the work",
			op:     "one Driver.Run of 4 apps x 30 jobs",
			inputs: 4,
			episode: func(seed uint64, input int, rec *recorder) (episode, error) {
				return simEpisode(simSpec{kind: workload.WordCount, nodes: 25, sched: driver.SchedQuincy}, seed, input, rec)
			},
		},
		{
			name:   "svc-closed-loop",
			why:    "custodyd over HTTP with a fsync'ing intent log: short RunUntil slices, WAL writes, status reads, metrics publishing",
			op:     "one cycle: GET /v1/status, submits, RoundOnce",
			inputs: svcInputs,
			episode: func(seed uint64, input int, rec *recorder) (episode, error) {
				return svcEpisode(seed, input, rec, tmpRoot)
			},
		},
		{
			name:   "alloc-churn",
			why:    "warm core.Session at 100k nodes, the only place where building the executor pool dominates",
			op:     "one Session.Allocate round",
			inputs: 1,
			episode: func(seed uint64, _ int, rec *recorder) (episode, error) {
				return allocEpisode(seed, rec)
			},
		},
	}
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value
	note  string // how it was taken
	// tableOnly figures are printed but left out of the JSON result:
	// they move too much between runs to be held to a bound.
	tableOnly bool
}

// result is a whole run of one workload.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	problems  []string
}

// measure runs untraced episodes until the time is up and reports the
// end-to-end metrics. Each timing is taken per episode; per input the run
// takes the median over that input's episodes, so a burst of load from
// elsewhere on the host that spoils an episode does not move it, and
// reports the mean over the inputs, which averages out how the inputs
// differ. The tail's percentile is fixed by the episode's operation count,
// not by the program's speed.
func measure(w workloadDef, seed uint64, seconds float64) (*result, error) {
	start := time.Now()
	var eps []episode
	// Every input runs at least once and the first twice, so that the run
	// checks a replay against the original.
	for k := 0; k <= w.inputs || time.Since(start).Seconds() < seconds; k++ {
		ep, err := runEpisode(w, seed, k%w.inputs, nil)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}

	res := check(eps)
	var setups []float64
	var peak uint64
	p50s := make([][]float64, w.inputs)
	tails := make([][]float64, w.inputs)
	rates := make([][]float64, w.inputs)
	locality := 0.0
	for _, ep := range eps {
		setups = append(setups, ep.setup)
		peak = max(peak, ep.heap)
		p50s[ep.input] = append(p50s[ep.input], median(ep.ops))
		v, _ := tail(ep.ops)
		tails[ep.input] = append(tails[ep.input], v)
		rates[ep.input] = append(rates[ep.input], float64(ep.jobs)/ep.opSeconds())
	}
	for _, ep := range eps[:w.inputs] {
		locality += ep.locality / float64(w.inputs)
	}
	n := len(eps)
	ops := len(eps[0].ops)
	_, tailP := tail(eps[0].ops)
	per := fmt.Sprintf("mean over %d inputs of the median over episodes of ", w.inputs)
	res.metrics = []metric{
		{name: "setup_s", value: median(setups), unit: "s", n: n, note: "median set-up"},
		{name: "heap_peak_mb", value: float64(peak) / (1 << 20), unit: "MB", n: n, note: "live heap after the timed operations, largest episode"},
		{name: "op_p50_ms", value: meanOfMedians(p50s), unit: "ms", n: n, note: per + fmt.Sprintf("the median of %d x %s", ops, w.op)},
		{name: "op_tail_ms", value: meanOfMedians(tails), unit: "ms", n: n, note: per + tailLabel(tailP, ops), tableOnly: true},
		{name: "jobs_per_s", value: meanOfMedians(rates), unit: "1/s", n: n, note: per + "jobs completed per host second of timed operations"},
		{name: "locality", value: locality, unit: "frac", n: w.inputs, note: "model output, mean over the inputs"},
	}
	return res, nil
}

// meanOfMedians is the mean over inputs of each input's median.
func meanOfMedians(byInput [][]float64) float64 {
	t := 0.0
	for _, xs := range byInput {
		t += median(xs)
	}
	return t / float64(len(byInput))
}

// runEpisode runs one episode from a collected heap and tags it with its
// input.
func runEpisode(w workloadDef, seed uint64, input int, rec *recorder) (episode, error) {
	runtime.GC()
	ep, err := w.episode(seed, input, rec)
	ep.input = input
	return ep, err
}

// check folds the episodes' own checks, and requires every episode to have
// produced the same results as the first episode of its input.
func check(eps []episode) *result {
	res := &result{}
	first := map[int]int{} // input → index of its first episode
	for i, ep := range eps {
		res.attempted += ep.attempted
		res.failed += ep.failed
		for _, p := range ep.problems {
			res.problems = append(res.problems, fmt.Sprintf("episode %d: %s", i, p))
		}
		f, seen := first[ep.input]
		if !seen {
			first[ep.input] = i
			continue
		}
		if ep.digest != eps[f].digest {
			res.problems = append(res.problems, fmt.Sprintf("episode %d: results digest %s differs from episode %d's %s", i, ep.digest, f, eps[f].digest))
		}
		if ep.locality != eps[f].locality {
			res.problems = append(res.problems, fmt.Sprintf("episode %d: locality %v differs from episode %d's %v", i, ep.locality, f, eps[f].locality))
		}
	}
	res.correct = len(res.problems) == 0 && res.failed == 0 && res.attempted > 0
	return res
}

// perLayer lists every per-layer metric with its unit. A workload that does
// not exercise a layer reports 0 for it.
var perLayer = func() []metric {
	var ms []metric
	for _, m := range modules {
		ms = append(ms, metric{name: m + ".cpu_frac", unit: "frac"})
	}
	ms = append(ms,
		metric{name: "gc.cpu_frac", unit: "frac"},
		metric{name: "other.cpu_frac", unit: "frac"},
		metric{name: "event.events", unit: "count"},
		metric{name: "manager.calls", unit: "count"},
		metric{name: "manager.busy_s", unit: "s"},
		metric{name: "manager.reallocations", unit: "count"},
		metric{name: "hdfs.picks", unit: "count"},
		metric{name: "hdfs.pick_s", unit: "s"},
		metric{name: "driver.self_s", unit: "s"},
		metric{name: "driver.task_launches", unit: "count"},
		metric{name: "driver.remote_launches", unit: "count"},
		metric{name: "scheduler.delay_mean_s", unit: "s"},
		metric{name: "scheduler.local_task_frac", unit: "frac"},
		metric{name: "sim.jct_mean_s", unit: "s"},
		metric{name: "http.submit_p50_ms", unit: "ms"},
		metric{name: "http.status_p50_ms", unit: "ms"},
		metric{name: "custodyd.round_busy_s", unit: "s"},
		metric{name: "custodyd.wal_ops", unit: "count"},
		metric{name: "custodyd.wal_bytes", unit: "bytes"},
		metric{name: "custodyd.shed", unit: "count"},
		metric{name: "core.grants", unit: "count"},
		metric{name: "core.local_grant_frac", unit: "frac"},
		metric{name: "go.allocs", unit: "count"},
		metric{name: "go.alloc_bytes", unit: "bytes"},
		metric{name: "trace.overhead_frac", unit: "frac"},
	)
	return ms
}()

// traceRun alternates untraced and traced episodes while another pair fits
// in the time, profiles the traced ones, and reports the per-layer metrics:
// medians over the traced episodes, CPU shares over all their samples. The
// spans and the profile attribution are written to outDir.
func traceRun(w workloadDef, seed uint64, seconds float64, outDir string) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rec := newRecorder()
	var eps []episode
	var overhead []float64
	layers := map[string][]float64{}
	var prof attribution
	start := time.Now()
	for pair := 1; ; pair++ {
		pairStart := time.Now()
		input := (pair - 1) % w.inputs
		u, err := runEpisode(w, seed, input, nil)
		if err != nil {
			return nil, err
		}
		rec.run = pair
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		t, err := runEpisode(w, seed, input, rec)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		a, err := attribute(buf.Bytes())
		if err != nil {
			return nil, err
		}
		prof.add(a)
		if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("cpu-%d.pprof", pair)), buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		eps = append(eps, u, t)
		overhead = append(overhead, t.opSeconds()/u.opSeconds()-1)
		for _, m := range perLayer {
			if v, ok := t.layers[m.name]; ok {
				layers[m.name] = append(layers[m.name], v)
			}
		}
		elapsed := time.Since(start)
		if elapsed+time.Since(pairStart) > time.Duration(seconds*float64(time.Second)) {
			break
		}
	}

	res := check(eps)
	pairs := len(overhead)
	for _, m := range perLayer {
		switch {
		case strings.HasSuffix(m.name, ".cpu_frac"):
			m.value = prof.frac(strings.TrimSuffix(m.name, ".cpu_frac"))
			m.n = int(prof.Samples)
		case m.name == "trace.overhead_frac":
			m.value = median(overhead)
			m.n = pairs
		default:
			m.value = median(layers[m.name])
			m.n = len(layers[m.name])
		}
		res.metrics = append(res.metrics, m)
	}
	if err := rec.write(filepath.Join(outDir, "spans.jsonl")); err != nil {
		return nil, err
	}
	attr, err := json.MarshalIndent(prof, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "profile.json"), attr, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// aside runs fn under the profiler label that keeps its samples out of the
// CPU attribution: set-up, checks and the churn between allocation rounds
// are not the work being measured.
func aside(fn func()) {
	pprof.Do(context.Background(), pprof.Labels(asideKey, asideValue), func(context.Context) { fn() })
}

const (
	asideKey   = "perfbench"
	asideValue = "aside"
)

// report prints the human-readable table, then the JSON line.
func report(w workloadDef, seed uint64, res *result) error {
	fmt.Printf("# %s: %s\n# seed=%d correct=%t attempted=%d failed=%d fail_frac=%.6g\n",
		w.name, w.why, seed, res.correct, res.attempted, res.failed, failFrac(res.failed, res.attempted))
	for _, m := range res.metrics {
		note := m.note
		if m.tableOnly {
			note = "[not in the JSON result] " + note
		}
		fmt.Printf("  %-26s %16.6g %-6s n=%-7d %s\n", m.name, m.value, m.unit, m.n, note)
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", w.name, p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]jm{}}
	for _, m := range res.metrics {
		if !m.tableOnly {
			out.Metrics[m.name] = jm{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "how long a run measures")
	traceFlag := flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for traces and temporary service state")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traceFlag)
	}
	tmpRoot := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	all := workloads(tmpRoot)
	var selected []workloadDef
	var names []string
	for _, w := range all {
		names = append(names, w.name)
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		sort.Strings(names)
		return fmt.Errorf("unknown --workload %q (valid: all %s)", *name, strings.Join(names, " "))
	}
	var failed []string
	for _, w := range selected {
		var res *result
		var err error
		if *traceFlag == 1 {
			res, err = traceRun(w, *seed, *seconds, filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d", w.name, *seed)))
		} else {
			res, err = measure(w, *seed, *seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if err := report(w, *seed, res); err != nil {
			return err
		}
		if !res.correct {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return errors.New("incorrect results on " + strings.Join(failed, ", "))
	}
	return nil
}
