// Command pipebench is csoutlier's end-to-end pipeline benchmark. It
// runs one named workload from a seed, drives the program through its
// public API over loopback TCP (pull nodes served with cluster.Serve, a
// stream.Aggregator fed by stream.Nodes), checks every answer against
// an exact computation made apart from the program, and prints one JSON
// line: the end-to-end metrics, or with --trace 1 the per-layer ones.
//
//	bash pipebench/run.sh --workload oneshot --seed 1 --seconds 30 --trace 0
//	bash pipebench/run.sh --workload dashboard --repeat 10 --seconds 30
//
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// setupRuns is how many times a run builds its whole rig; setup_s is
// the median, the last rig is the one measured. Each build starts after
// a forced collection, so no build pays for the garbage of the one
// before it. watchlist's rig builds in a few milliseconds, so it is
// built more often for an equally steady median.
const (
	setupRuns      = 15
	setupRunsSmall = 60
)

// gcPercent is the GOGC the benchmark process runs with. The process
// stands in for three of a deployment's processes (two nodes and the
// aggregator), each of which would have Go's 4 MiB minimum heap goal of
// its own; GOGC 300 gives the one process that combined floor, since
// the minimum heap goal scales with GOGC. At the default floor the
// three share one collector that, on watchlist's ~2 MiB live heap, runs
// about every 14 push frames.
const gcPercent = 300

// minP90Answers is the fewest answers a run needs for its 90th
// percentile to be reported; below it the metric reads 0.
const minP90Answers = 100

// run is one workload execution: its settings and everything measured.
type run struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil in the untraced run

	setups    []time.Duration
	answers   []time.Duration // end-to-end answer latencies
	ingests   []time.Duration // ingest phase durations
	ingestObs int64           // observations per ingest phase
	wire      atomic.Int64    // loopback bytes through the servers' listeners
	sketches  int64           // sketches shipped: push frames or pull replies

	attempted int64
	failed    int64
	wrong     int64 // failed checks on operations expected to succeed
	firstErr  error

	cycles  int           // loop iterations: pull operations or push rounds
	loopDur time.Duration // wall time of the measured loop
	heapMB  float64
	layer   map[string]float64 // per-layer metrics, traced run only

	// Go runtime allocation and GC-pause totals over the watched work
	// (ingest phases, or whole pull operations), traced run only.
	allocBytes, gcPauseNs uint64
}

// fail counts one failed operation. expected marks the named program
// fault the benchmark keeps as a probe; any other failure makes the
// run incorrect.
func (r *run) fail(expected bool, err error) {
	r.failed++
	if !expected {
		r.invalid(err)
	}
}

// invalid marks the run incorrect for a failed check that belongs to
// no measured operation: a warm-up answer or the end-of-run fold books.
func (r *run) invalid(err error) {
	r.wrong++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// checked books the outcome of one round's checks: in a measured round
// a failure is a failed operation, in a warm-up round it makes the run
// incorrect without being counted.
func (r *run) checked(measured bool, err error) {
	if err == nil {
		return
	}
	if measured {
		r.fail(false, err)
	} else {
		r.invalid(err)
	}
}

// memWatch starts counting the Go runtime's allocations and GC pauses
// in the traced run; the returned function stops and books them.
func (r *run) memWatch(t *tracer) func() {
	if t == nil {
		return func() {}
	}
	alloc0, pause0 := memSnap()
	return func() {
		alloc1, pause1 := memSnap()
		r.allocBytes += alloc1 - alloc0
		r.gcPauseNs += pause1 - pause0
	}
}

// deadline reports whether the measured loop has used its time.
func (r *run) deadline(start time.Time) bool {
	return time.Since(start).Seconds() >= r.seconds
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd are the metrics of the untraced run, as BENCHMARK.json lists
// them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"answer_p50_ms", "ms"},
	{"ingest_obs_per_s", "1/s"},
	{"wire_bytes_per_sketch", "bytes"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics of the traced run. A layer a workload
// bypasses reads 0 there.
var perLayer = []struct{ name, unit string }{
	{"trace.cycle_ms", "ms"},
	{"trace.answer_p50_ms", "ms"},
	{"trace.answer_p90_ms", "ms"},
	{"self.sensing_ms", "ms"},
	{"self.cluster_ms", "ms"},
	{"self.recovery_ms", "ms"},
	{"self.stream_ms", "ms"},
	{"self.other_ms", "ms"},
	{"sensing.node_sketch_ms", "ms"},
	{"sensing.observe_ns", "ns"},
	{"cluster.rtt_ms", "ms"},
	{"cluster.bytes_per_answer", "bytes"},
	{"recovery.detect_ms", "ms"},
	{"recovery.batch_ms", "ms"},
	{"recovery.iters_per_answer", "count"},
	{"recovery.live_iters_per_answer", "count"},
	{"recovery.scripted_iters_per_answer", "count"},
	{"recovery.divergences_per_answer", "count"},
	{"recovery.picks.bomp", "count"},
	{"recovery.picks.aiht", "count"},
	{"recovery.picks.dantzig", "count"},
	{"stream.range_us", "us"},
	{"stream.cache_hits_per_answer", "count"},
	{"stream.warm_starts_per_answer", "count"},
	{"stream.batch_refreshes_per_answer", "count"},
	{"stream.flush_us", "us"},
	{"stream.fold_us", "us"},
	{"stream.frames_per_round", "count"},
	{"stream.point_refresh_us", "us"},
	{"stream.point_warm_ns_per_key", "ns"},
	{"stream.point_refreshes_per_pass", "count"},
	{"stream.point_keys_per_s", "1/s"},
	{"go.alloc_bytes_per_sketch", "bytes"},
	{"go.gc_pause_ms", "ms"},
}

var workloads = map[string]func(context.Context, *run) error{
	"oneshot":   runOneshot,
	"dashboard": runDashboard,
	"watchlist": runWatchlist,
}

func main() {
	workload := flag.String("workload", "", "workload to run: oneshot, dashboard or watchlist")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: print per-layer metrics and write spans")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	repeat := flag.Int("repeat", 0, "run the workload this many times on seeds seed, seed+1, ... and print each metric's median, quartiles and spread")
	flag.Parse()
	debug.SetGCPercent(gcPercent)
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "pipebench: unknown workload %q (want oneshot, dashboard or watchlist)\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "pipebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(*workload, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "pipebench:", err)
			os.Exit(1)
		}
		return
	}
	// A wedged run must still end, well within three minutes.
	time.AfterFunc(time.Duration(*seconds*float64(time.Second))+120*time.Second, func() {
		fmt.Fprintln(os.Stderr, "pipebench: watchdog: run did not finish")
		os.Exit(3)
	})
	res, err := execute(*workload, *seed, *seconds, *trace == 1, *traceDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and assembles its result line.
func execute(workload string, seed uint64, seconds float64, traced bool, traceDir string) (*result, error) {
	r := &run{seed: seed, seconds: seconds, tr: newTracer(traced), layer: map[string]float64{}}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds*float64(time.Second))+100*time.Second)
	defer cancel()
	if err := workloads[workload](ctx, r); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "pipebench: %s: %d wrong answers; first: %v\n", workload, r.wrong, r.firstErr)
	}
	res := &result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation attempted", workload)
	}
	if !traced {
		setup := make([]float64, len(r.setups))
		for i, d := range r.setups {
			setup[i] = d.Seconds()
		}
		_, setupMedian, _ := quartiles(setup)
		vals := map[string]float64{
			"setup_s":               setupMedian,
			"answer_p50_ms":         percentile(r.answers, 0.5),
			"ingest_obs_per_s":      float64(r.ingestObs) / (percentile(r.ingests, 0.5) / 1e3),
			"wire_bytes_per_sketch": float64(r.wire.Load()) / float64(r.sketches),
			"heap_mb":               r.heapMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		return res, checkFinite(res)
	}
	self := r.tr.selfTimes()
	r.layer["trace.cycle_ms"] = ms(r.loopDur) / float64(r.cycles)
	r.layer["trace.answer_p50_ms"] = percentile(r.answers, 0.5)
	if len(r.answers) >= minP90Answers {
		r.layer["trace.answer_p90_ms"] = percentile(r.answers, 0.9)
	}
	var covered time.Duration
	for _, l := range layers {
		if l != layerOther {
			covered += self[l]
			r.layer["self."+l+"_ms"] = ms(self[l]) / float64(r.cycles)
		}
	}
	// Everything the layer spans do not cover is the benchmark's own
	// work: other is the remainder, so the self times add up exactly.
	r.layer["self.other_ms"] = ms(r.loopDur-covered) / float64(r.cycles)
	r.layer["go.alloc_bytes_per_sketch"] = ratio(float64(r.allocBytes), float64(r.sketches))
	r.layer["go.gc_pause_ms"] = ratio(float64(r.gcPauseNs)/1e6, float64(r.cycles))
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: r.layer[m.name], Unit: m.unit}
	}
	path, err := r.tr.write(traceDir, workload, seed)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pipebench: %d spans written to %s\n", len(r.tr.spans), path)
	return res, checkFinite(res)
}

func checkFinite(res *result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// repeatRuns runs the workload n times, each in its own process on its
// own seed, and prints per metric the median, the quartiles and the
// relative spread (q3−q1)/median the BENCHMARK.json bounds are set from.
func repeatRuns(workload string, seed uint64, seconds float64, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		res, err := runChild(exe, workload, s, seconds, trace)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run reported incorrect answers", s)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		line, _ := json.Marshal(res.Metrics)
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, line)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d runs of %gs, failed/attempted %s\n", workload, n, seconds, strings.Join(shares, " "))
	fmt.Printf("%-36s %14s %14s %14s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Printf("%-36s %14.6g %14.6g %14.6g %7.2f%%  %s\n", name, q1, med, q3, 100*spread, units[name])
	}
	return nil
}

// runChild runs one workload in a child process and parses its result
// line.
func runChild(exe, workload string, seed uint64, seconds float64, trace int) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}
