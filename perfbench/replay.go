package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	lynceus "repro"
	"repro/internal/bagging"
	"repro/internal/numeric"
	"repro/internal/serve"
)

// layers holds the per-layer numbers of a traced run, gathered by driving
// each layer directly through its public functions on the run's own
// campaigns.
type layers struct {
	stepMS, planMS, snapMS, snapKB, resumeMS []float64
	putMS, scanMS                            []float64
	fitMS, predictNsPerCfg, cloneUpdateUS    []float64
	allocKBPerStep                           float64
	trials, timeouts, feasible               int
	mismatches                               []string
}

// Per-layer sampling caps: enough samples for steady medians without
// letting a run with thousands of steps spend minutes on fsyncs and refits.
const (
	maxPutsPerCampaign   = 8
	maxProbesPerCampaign = 4
	maxProbes            = 240
	storeScanRepetitions = 3
	allocProbeCampaigns  = 4
)

// replay reruns every campaign of the run directly through
// lynceus.StartTuner, one step at a time with a snapshot after each step
// (as the server does), and checks that its trial sequence equals the
// served one bitwise. On the way it times the core, optimizer and store
// layers, then probes the model layer on each campaign's real history.
func replay(pl *planner, n int, served map[string]lynceus.Result, dir string, rec *recorder) (*layers, error) {
	store, err := serve.OpenStore(filepath.Join(dir, "replay-store"))
	if err != nil {
		return nil, err
	}
	out := &layers{}
	results := make([]lynceus.Result, n)
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		errOnce error
	)
	jobs := make(chan int)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, err := replayOne(pl, i, served, store, rec, out, &mu)
				mu.Lock()
				if err != nil && errOnce == nil {
					errOnce = err
				}
				results[i] = res
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if errOnce != nil {
		return nil, errOnce
	}
	out.stepMS, out.planMS = decisionTimes(rec, pl)
	if out.allocKBPerStep, err = allocPerStep(pl, min(n, allocProbeCampaigns)); err != nil {
		return nil, err
	}

	for r := 0; r < storeScanRepetitions; r++ {
		d, err := scanStore(store.Dir())
		if err != nil {
			return nil, err
		}
		out.scanMS = append(out.scanMS, ms(d))
	}
	if err := probeModels(pl, results, rec, out); err != nil {
		return nil, err
	}
	return out, nil
}

// replayOne replays campaign i and compares it with the served run.
func replayOne(pl *planner, i int, served map[string]lynceus.Result, store *serve.Store, rec *recorder, out *layers, mu *sync.Mutex) (lynceus.Result, error) {
	p, err := pl.get(i)
	if err != nil {
		return lynceus.Result{}, err
	}
	id := p.spec.ID
	want, ok := served[id]
	if !ok {
		return lynceus.Result{}, fmt.Errorf("replay: no served result for %s", id)
	}
	inner, err := serve.BuildEnv(p.spec.Env)
	if err != nil {
		return lynceus.Result{}, err
	}
	tuner, err := lynceus.StartTuner(p.spec.Tuner.TunerConfig(), wrapEnv(inner, rec, id, nil), p.spec.Options.Options())
	if err != nil {
		return lynceus.Result{}, err
	}
	if err := store.PutSpec(p.spec); err != nil {
		return lynceus.Result{}, err
	}
	var snapMS, snapKB, putMS, resumeMS []float64
	var snap []byte
	resumeAt := len(want.Trials) / 2 // the resume probe runs halfway
	for step := 0; ; step++ {
		si := rec.begin("core.step", id, -1)
		rec.setOpen(id, si)
		done, err := tuner.Step()
		rec.setOpen(id, -1)
		rec.end(si)
		if err != nil {
			return lynceus.Result{}, fmt.Errorf("replay %s step %d: %w", id, step, err)
		}
		ei := rec.begin("core.snapshot_encode", id, -1)
		snap, err = tuner.Snapshot()
		snapMS = append(snapMS, ms(rec.end(ei)))
		if err != nil {
			return lynceus.Result{}, err
		}
		snapKB = append(snapKB, float64(len(snap))/1024)
		if len(putMS) < maxPutsPerCampaign || done {
			pi := rec.begin("serve.store_put", id, -1)
			err := store.PutSnapshot(id, snap)
			putMS = append(putMS, ms(rec.end(pi)))
			if err != nil {
				return lynceus.Result{}, err
			}
		}
		if len(tuner.Trials()) == resumeAt && resumeMS == nil {
			d, err := timeResume(p, snap, rec)
			if err != nil {
				return lynceus.Result{}, err
			}
			resumeMS = append(resumeMS, d)
		}
		if done {
			break
		}
	}
	res, err := tuner.Result()
	if err != nil {
		return lynceus.Result{}, err
	}
	mismatch := sameTrials(res.Trials, want.Trials)

	mu.Lock()
	defer mu.Unlock()
	out.snapMS = append(out.snapMS, snapMS...)
	out.snapKB = append(out.snapKB, snapKB...)
	out.putMS = append(out.putMS, putMS...)
	out.resumeMS = append(out.resumeMS, resumeMS...)
	out.trials += len(res.Trials)
	for _, t := range res.Trials {
		if t.TimedOut {
			out.timeouts++
		}
		if t.Feasible(p.spec.Options.MaxRuntimeSeconds, p.spec.Options.ExtraConstraints) {
			out.feasible++
		}
	}
	if mismatch != "" {
		out.mismatches = append(out.mismatches, id+": "+mismatch)
	}
	return res, nil
}

// timeResume times lynceus.ResumeTuner from a mid-campaign snapshot on a
// freshly built environment, as a restarted server does.
func timeResume(p *plan, snap []byte, rec *recorder) (float64, error) {
	env, err := serve.BuildEnv(p.spec.Env)
	if err != nil {
		return 0, err
	}
	ri := rec.begin("core.resume", p.spec.ID, -1)
	_, err = lynceus.ResumeTuner(p.spec.Tuner.TunerConfig(), env, snap)
	d := rec.end(ri)
	if err != nil {
		return 0, fmt.Errorf("resume %s: %w", p.spec.ID, err)
	}
	return ms(d), nil
}

// sameTrials compares two trial sequences bitwise and describes the first
// difference ("" when equal).
func sameTrials(got, want []lynceus.Trial) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d trials, served %d", len(got), len(want))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k := range got {
		g, w := got[k], want[k]
		if g.Config.ID != w.Config.ID || !same(g.RuntimeSeconds, w.RuntimeSeconds) ||
			!same(g.UnitPricePerHour, w.UnitPricePerHour) || !same(g.Cost, w.Cost) ||
			g.TimedOut != w.TimedOut || len(g.Extra) != len(w.Extra) {
			return fmt.Sprintf("trial %d differs: config %d cost %v, served config %d cost %v",
				k, g.Config.ID, g.Cost, w.Config.ID, w.Cost)
		}
		for m, v := range g.Extra {
			if wv, ok := w.Extra[m]; !ok || !same(v, wv) {
				return fmt.Sprintf("trial %d differs in %s", k, m)
			}
		}
	}
	return ""
}

// allocPerStep reruns the first n campaigns on this goroutine alone and
// returns the heap allocated per Step plus its Snapshot, in KiB: the
// allocation a served step costs the core layer, with nothing else running.
func allocPerStep(pl *planner, n int) (float64, error) {
	var total uint64
	steps := 0
	for i := 0; i < n; i++ {
		p, err := pl.get(i)
		if err != nil {
			return 0, err
		}
		env, err := serve.BuildEnv(p.spec.Env)
		if err != nil {
			return 0, err
		}
		tuner, err := lynceus.StartTuner(p.spec.Tuner.TunerConfig(), env, p.spec.Options.Options())
		if err != nil {
			return 0, err
		}
		var before, after runtime.MemStats
		for done := false; !done; steps++ {
			runtime.ReadMemStats(&before)
			if done, err = tuner.Step(); err != nil {
				return 0, err
			}
			if _, err := tuner.Snapshot(); err != nil {
				return 0, err
			}
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
	}
	return float64(total) / 1024 / float64(max(steps, 1)), nil
}

// decisionTimes returns, per decision step of the replay (every step after
// the bootstrap), the step's time and that time minus its profiling run:
// the planner's share.
func decisionTimes(rec *recorder, pl *planner) (stepMS, planMS []float64) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	envTime := make(map[int]time.Duration)
	for _, s := range rec.spans {
		if s.Name == "optimizer.env_run" && s.Parent >= 0 && s.End > 0 {
			envTime[s.Parent] += s.End - s.Start
		}
	}
	stepIndex := make(map[string]int)
	for i, s := range rec.spans {
		if s.Name != "core.step" || s.End == 0 {
			continue
		}
		k := stepIndex[s.ID]
		stepIndex[s.ID] = k + 1
		if k >= pl.bootstrapOf(s.ID) {
			stepMS = append(stepMS, ms(s.End-s.Start))
			planMS = append(planMS, ms(s.End-s.Start-envTime[i]))
		}
	}
	return stepMS, planMS
}

// scanStore times the restart read path of the store layer: open the
// state directory, read every spec and every snapshot.
func scanStore(dir string) (time.Duration, error) {
	t0 := time.Now()
	store, err := serve.OpenStore(dir)
	if err != nil {
		return 0, err
	}
	specs, err := store.Specs()
	if err != nil {
		return 0, err
	}
	for _, s := range specs {
		if _, _, err := store.Snapshot(s.ID); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// probeModels drives bagging.Ensemble on each replayed campaign's real
// history at a few of its decisions: Fit on the trials so far,
// PredictBatch over the untested configurations, and CloneInto plus
// Update of the next observed sample, as lookahead speculation does.
func probeModels(pl *planner, results []lynceus.Result, rec *recorder, out *layers) error {
	probes := 0
	for i, res := range results {
		p, err := pl.get(i)
		if err != nil {
			return err
		}
		boot := p.boot
		n := len(res.Trials)
		if n <= boot {
			continue
		}
		env, err := serve.BuildEnv(p.spec.Env)
		if err != nil {
			return err
		}
		space := env.Space()
		cols := space.FeatureColumns()
		for q := 0; q < maxProbesPerCampaign && probes < maxProbes; q++ {
			k := boot + q*(n-boot)/maxProbesPerCampaign
			if err := probeDecision(space, cols, res.Trials, k, p.spec.Options.Seed, p.spec.ID, rec, out); err != nil {
				return fmt.Errorf("model probe %s at trial %d: %w", p.spec.ID, k, err)
			}
			probes++
		}
	}
	return nil
}

// probeDecision times one decision's model calls on the first k trials.
// The clone destination is warmed by one clone first, as the planner
// reuses its speculation scratch models.
func probeDecision(space *lynceus.Space, cols [][]float64, trials []lynceus.Trial, k int, seed int64, id string, rec *recorder, out *layers) error {
	x := make([][]float64, k)
	y := make([]float64, k)
	tested := make([]bool, space.Size())
	for j := 0; j < k; j++ {
		row, err := space.RowFeatures(trials[j].Config.ID)
		if err != nil {
			return err
		}
		x[j], y[j] = row, trials[j].Cost
		tested[trials[j].Config.ID] = true
	}
	var untested []int
	for c := range tested {
		if !tested[c] {
			untested = append(untested, c)
		}
	}
	ucols := make([][]float64, len(cols))
	for f, col := range cols {
		ucols[f] = make([]float64, len(untested))
		for j, c := range untested {
			ucols[f][j] = col[c]
		}
	}
	params := bagging.Params{Incremental: true}
	model := bagging.New(params, seed)
	fi := rec.begin("model.fit", id, -1)
	err := model.Fit(x, y)
	out.fitMS = append(out.fitMS, ms(rec.end(fi)))
	if err != nil {
		return err
	}
	preds := make([]numeric.Gaussian, len(untested))
	pi := rec.begin("model.predict_batch", id, -1)
	err = model.PredictBatch(ucols, preds)
	d := rec.end(pi)
	if err != nil {
		return err
	}
	if len(untested) > 0 {
		out.predictNsPerCfg = append(out.predictNsPerCfg, float64(d.Nanoseconds())/float64(len(untested)))
	}
	next := trials[min(k, len(trials)-1)]
	xn, err := space.RowFeatures(next.Config.ID)
	if err != nil {
		return err
	}
	clone := bagging.New(params, seed)
	if err := model.CloneInto(clone); err != nil {
		return err
	}
	ci := rec.begin("model.clone_update", id, -1)
	err = model.CloneInto(clone)
	if err == nil {
		err = clone.Update(xn, next.Cost)
	}
	out.cloneUpdateUS = append(out.cloneUpdateUS, float64(rec.end(ci))/float64(time.Microsecond))
	return err
}

// metrics is the traced run's per-layer metrics, in BENCHMARK.json order.
// Timings are medians over every sample of the traced pass and the replay.
func (l *layers) metrics(traced *pass, rec *recorder) []metric {
	return []metric{
		{"core.step_ms", "ms", quantile(l.stepMS, 0.5)}, // decision steps, as step_p50_ms
		{"core.plan_ms", "ms", quantile(l.planMS, 0.5)},
		{"core.snapshot_encode_ms", "ms", quantile(l.snapMS, 0.5)},
		{"core.snapshot_kb", "KiB", quantile(l.snapKB, 0.5)},
		{"core.resume_ms", "ms", quantile(l.resumeMS, 0.5)},
		{"core.alloc_kb_per_step", "KiB", l.allocKBPerStep},
		{"core.decisions", "count", float64(len(l.planMS))},
		{"core.trials", "count", float64(l.trials)},
		{"optimizer.env_run_ms", "ms", quantile(rec.durations("optimizer.env_run"), 0.5)},
		{"optimizer.timeouts", "count", float64(l.timeouts)},
		{"optimizer.feasible_ratio", "ratio", float64(l.feasible) / float64(max(l.trials, 1))},
		{"model.fit_ms", "ms", quantile(l.fitMS, 0.5)},
		{"model.predict_batch_ns_per_cfg", "ns", quantile(l.predictNsPerCfg, 0.5)},
		{"model.clone_update_us", "us", quantile(l.cloneUpdateUS, 0.5)},
		{"serve.store_put_ms", "ms", quantile(l.putMS, 0.5)},
		{"serve.store_scan_ms", "ms", quantile(l.scanMS, 0.5)},
		{"serve.queue_len_max", "count", float64(traced.queueMax)},
		{"serve.rejected", "count", float64(traced.rejected)},
		{"serve.rollbacks", "count", float64(traced.rollbacks)},
	}
}
