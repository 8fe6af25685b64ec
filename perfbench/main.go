// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the tuning service from a single process, checks
// every campaign's outcome against ground truth, and prints one JSON result
// line last. With -trace 1 it also runs the workload traced and replays its
// campaigns to report per-layer metrics.
//
// Run it through run.py from the repository root, which builds it first:
//
//	python3 perfbench/run.py --workload serve-myopic --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	lynceus "repro"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name: serve-lookahead, serve-myopic or batch-full")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed submits the same campaigns")
		seconds = flag.Float64("seconds", 30, "how long each pass generates load")
		trace   = flag.Int("trace", 0, "1 adds a traced pass and a replay, and reports per-layer metrics")
		workDir = flag.String("dir", ".bench_build/perfbench", "scratch directory for state and traces")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	dir, err := filepath.Abs(filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d cores=%d go=%s clients=%d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), clients)

	pl := newPlanner(w, *seed)
	setup, err := measureSetup(w, pl, dir)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	untraced, err := runPass(w, pl, *seconds, filepath.Join(dir, "pass-untraced"), nil)
	if err != nil {
		return err
	}
	untraced.setup = setup
	e2e := untraced.endToEnd()
	printMetrics("end-to-end (untraced)", e2e)
	untraced.printDetails()

	res := result{Correct: true, Attempted: untraced.attempted, Failed: untraced.failed, Metrics: map[string]value{}}
	if *trace == 0 {
		for _, m := range e2e {
			res.Metrics[m.name] = value{m.value, m.unit}
		}
		return res.print()
	}

	rec := newRecorder()
	traced, err := runPass(w, pl, *seconds, filepath.Join(dir, "pass-traced"), rec)
	if err != nil {
		return err
	}
	traced.setup = setup
	printOverhead(e2e, traced.endToEnd())
	traced.printDetails()
	ly, err := replay(pl, len(traced.outcomes), traced.served, dir, rec)
	if err != nil {
		return err
	}
	if len(ly.mismatches) > 0 {
		res.Correct = false
		for _, m := range ly.mismatches {
			fmt.Println("replay mismatch:", m)
		}
	}
	fmt.Printf("served-vs-replay bitwise check: %d/%d campaigns identical\n",
		len(traced.outcomes)-len(ly.mismatches), len(traced.outcomes))
	perLayer := ly.metrics(traced, rec)
	printMetrics("per-layer (traced)", perLayer)
	if len(traced.handlerMS) > 0 {
		// The HTTP layer exists only on served workloads, so these two stay
		// out of the JSON line, which carries the same metrics everywhere.
		fmt.Printf("  %-34s %14.6g ms\n", "serve.handler_step_ms", quantile(traced.handlerMS, 0.5))
		fmt.Printf("  %-34s %14.6g ms\n", "serve.http_overhead_ms", quantile(traced.overheadMS, 0.5))
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	printSelfTimes(rec)
	path := filepath.Join(filepath.Dir(dir), fmt.Sprintf("trace-%s-%d.jsonl", w.name, *seed))
	if err := rec.write(path); err != nil {
		return err
	}
	fmt.Println("spans written to", path)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	return res.print()
}

// pass is one run of a workload, served or batch, reduced to what the
// metrics need.
type pass struct {
	setup float64
	wall  time.Duration
	steps int // steps of every kind, bootstrap included
	// stepRate is steps per second: the median over windows of the run
	// (served) or over batches (batch), so a passing stall on a shared
	// machine moves it less than a change to the program does.
	stepRate float64
	// stepMS holds the latency of every planned (post-bootstrap) step: as a
	// served client sees POST /step, or in a batch, from a campaign's
	// previous trial to its next one.
	stepMS     []float64
	readMS     []float64 // served GET /campaigns/{id} latencies
	restart    time.Duration
	attempted  int
	failed     int
	outcomes   []outcome
	served     map[string]lynceus.Result
	heapKB     float64 // heap the system held for the pass's campaigns
	queueMax   int
	rejected   uint64
	rollbacks  uint64
	handlerMS  []float64
	overheadMS []float64
}

func runPass(w workload, pl *planner, seconds float64, dir string, rec *recorder) (*pass, error) {
	if w.batchSize == 0 {
		return runServe(w, pl, seconds, dir, rec)
	}
	return runBatch(w, pl, seconds, rec)
}

type metric struct {
	name, unit string
	value      float64
}

// endToEnd is the pass's user-visible metrics, in BENCHMARK.json order.
func (p *pass) endToEnd() []metric {
	spent := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		spent[i] = o.spent
	}
	return []metric{
		{"setup_s", "s", p.setup},
		{"steps_per_s", "1/s", p.stepRate},
		{"step_p50_ms", "ms", quantile(p.stepMS, 0.5)},
		{"step_p95_ms", "ms", quantile(p.stepMS, 0.95)},
		// Campaigns per second is the step rate over the mean steps per
		// campaign, which inherits the step rate's robustness to stalls.
		{"campaigns_per_s", "1/s", p.stepRate * float64(len(p.outcomes)) / float64(max(p.steps, 1))},
		{"rec_cost_ratio_mean", "ratio", mean(p.ratios())},
		{"explore_cost_mean_usd", "USD", mean(spent)},
		{"live_heap_kb_per_campaign", "KiB", p.heapKB / float64(max(len(p.outcomes), 1))},
	}
}

// rateWindow is the width in seconds of the windows windowRate takes the
// median over.
const rateWindow = 2.0

// windowRate is the median over consecutive windows of [0, horizon) of the
// steps per second completed in each window. A step counts in each window
// in proportion to the part of its [start, end] span (seconds) inside it, so
// the rate is not rounded to whole steps.
func windowRate(spans [][2]float64, horizon, width float64) float64 {
	width = min(width, horizon)
	n := int(horizon / width)
	work := make([]float64, n)
	for _, sp := range spans {
		start, end := sp[0], sp[1]
		for k := max(int(start/width), 0); k < n && float64(k)*width < end; k++ {
			lo, hi := max(start, float64(k)*width), min(end, float64(k+1)*width)
			if hi > lo {
				work[k] += (hi - lo) / (end - start)
			}
		}
	}
	for k := range work {
		work[k] /= width
	}
	return quantile(work, 0.5)
}

// ratios is each campaign's recommendation cost over the optimum's.
func (p *pass) ratios() []float64 {
	out := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		out[i] = o.ratio
	}
	return out
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// printDetails prints what the JSON line does not carry: sample counts, the
// served-only metrics and the failure ratio.
func (p *pass) printDetails() {
	fmt.Printf("  campaigns=%d steps=%d planned-step samples=%d (beyond p95: %d) wall=%.2fs\n",
		len(p.outcomes), p.steps, len(p.stepMS), len(p.stepMS)-int(math.Ceil(0.95*float64(len(p.stepMS)))), p.wall.Seconds())
	fmt.Printf("  failed_ratio=%.4g (%d failed of %d attempted)\n", float64(p.failed)/float64(max(p.attempted, 1)), p.failed, p.attempted)
	violations := 0
	for _, o := range p.outcomes {
		if o.truthViolation {
			violations++
		}
	}
	fmt.Printf("  recommendations feasible as profiled but not on ground truth (stochastic jobs only): %d of %d\n",
		violations, len(p.outcomes))
	ratios := p.ratios()
	// The percentiles stay out of the JSON line: the median is exactly 1 on
	// workloads that mostly find the optimum, and a myopic run holds too few
	// campaigns for ten of them to lie beyond the paper's 90th percentile.
	fmt.Printf("  rec_cost_ratio_p50=%.4f rec_cost_ratio_p90=%.4f (%d campaigns, %d beyond p90)\n",
		quantile(ratios, 0.5), quantile(ratios, 0.9), len(ratios), len(ratios)-int(math.Ceil(0.9*float64(len(ratios)))))
	if len(p.readMS) > 0 {
		fmt.Printf("  read_p50_ms=%.4f (%d reads)\n", quantile(p.readMS, 0.5), len(p.readMS))
	}
	if p.restart > 0 {
		fmt.Printf("  restart_s=%.4f\n", p.restart.Seconds())
	}
}

// setupRepetitions is how many times measureSetup sets the system up; it
// reports the median.
const setupRepetitions = 5

// measureSetup times what the system does before the first request:
// generate and wrap the job of each campaign in the mix (or in the first
// batch), then open a server on a fresh state directory until /readyz
// answers, or create a MultiRunner and add the batch. It first builds those
// plans outside the timing, so the benchmark's own ground-truth oracle is
// not counted.
func measureSetup(w workload, pl *planner, dir string) (float64, error) {
	n := len(w.mix)
	if w.batchSize > 0 {
		n = w.batchSize
	}
	for i := 0; i < n; i++ {
		if _, err := pl.get(i); err != nil {
			return 0, err
		}
	}
	times := make([]float64, 0, setupRepetitions)
	for r := 0; r < setupRepetitions; r++ {
		stateDir := filepath.Join(dir, fmt.Sprintf("setup-%d", r))
		t0 := time.Now()
		if err := setUp(w, pl, n, stateDir); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if err := os.RemoveAll(stateDir); err != nil {
			return 0, err
		}
	}
	return quantile(times, 0.5), nil
}

func setUp(w workload, pl *planner, n int, stateDir string) error {
	plans := make([]*plan, n)
	envs := make([]lynceus.Environment, n)
	for i := range plans {
		p, err := pl.get(i)
		if err != nil {
			return err
		}
		if envs[i], err = serve.BuildEnv(p.spec.Env); err != nil {
			return err
		}
		plans[i] = p
	}
	if w.batchSize > 0 {
		runner := lynceus.NewMultiRunner(lynceus.MultiRunnerConfig{Concurrency: clients})
		for i, p := range plans {
			if err := runner.Add(p.spec.ID, p.spec.Tuner.TunerConfig(), envs[i], p.spec.Options.Options()); err != nil {
				return err
			}
		}
		return nil
	}
	srv, err := serve.New(serverConfig(stateDir, nil))
	if err != nil {
		return err
	}
	defer srv.Close()
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusOK {
		return fmt.Errorf("readyz answered %d", rr.Code)
	}
	return nil
}

// liveHeapKB is the heap in use after a full collection, in KiB.
func liveHeapKB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1024
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func printMetrics(title string, ms []metric) {
	fmt.Println(title + ":")
	for _, m := range ms {
		fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// printOverhead prints the tracing overhead: each end-to-end metric of the
// traced pass minus the untraced pass's.
func printOverhead(untraced, traced []metric) {
	fmt.Println("tracing overhead (traced - untraced):")
	for i, m := range untraced {
		t := traced[i].value
		rel := math.NaN()
		if m.value != 0 {
			rel = 100 * (t - m.value) / m.value
		}
		fmt.Printf("  %-34s %+14.6g %s (%+.1f%%)\n", m.name, t-m.value, m.unit, rel)
	}
}

// printSelfTimes prints each traced layer's self time and its share.
func printSelfTimes(rec *recorder) {
	self := rec.selfTimes()
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Println("self time per layer (traced pass and replay):")
	for _, n := range names {
		fmt.Printf("  %-34s %10.1f ms %5.1f%%\n", n, ms(self[n]), 100*float64(self[n])/float64(max(total, 1)))
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// print writes the result as the last line of standard output.
func (r result) print() error {
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(string(data)))
	if !r.Correct {
		return errors.New("outputs failed the correctness checks")
	}
	return nil
}
