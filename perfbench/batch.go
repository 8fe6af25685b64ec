package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	lynceus "repro"
)

// runBatch runs rounds of w.batchSize distinct-seed campaigns through one
// lynceus.MultiRunner each, stepping clients campaigns at once, until the
// duration is spent; the round in flight at the deadline runs to the end.
// Only Add and Run are timed: building the benchmark's oracle between rounds
// is not the system's work. Every runner stays alive until the heap is
// measured, so every campaign of the run is resident then.
func runBatch(w workload, pl *planner, seconds float64, rec *recorder) (*pass, error) {
	run := &pass{served: make(map[string]lynceus.Result)}
	var (
		runners    []*lynceus.MultiRunner
		roundRates []float64  // each round's steps per second
		mu         sync.Mutex // guards run.stepMS while a round runs
	)
	interval := func(d time.Duration) {
		mu.Lock()
		run.stepMS = append(run.stepMS, ms(d))
		mu.Unlock()
	}
	budget := time.Duration(seconds * float64(time.Second))
	for next := 0; run.wall < budget; next += w.batchSize {
		for k := 0; k < w.batchSize; k++ {
			if _, err := pl.get(next + k); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		runner, plans, err := addBatch(pl, next, w.batchSize, rec, interval)
		if err != nil {
			return nil, err
		}
		sum, err := runner.Run()
		round := time.Since(t0)
		run.wall += round
		if err != nil {
			return nil, err
		}
		roundSteps := 0
		for _, r := range sum.Results {
			roundSteps += r.Steps
		}
		roundRates = append(roundRates, float64(roundSteps)/round.Seconds())
		runners = append(runners, runner)
		for k, r := range sum.Results {
			run.attempted++
			run.steps += r.Steps
			if r.Err != nil {
				run.failed++
				return nil, fmt.Errorf("%s: %w", r.Name, r.Err)
			}
			o, err := judge(plans[k], r.Result)
			if err != nil {
				return nil, err
			}
			run.outcomes = append(run.outcomes, o)
			run.served[r.Name] = r.Result
		}
	}
	// The heap the runners hold for their campaigns: resident now, minus what
	// is left once they are gone.
	resident := liveHeapKB()
	runtime.KeepAlive(runners)
	runners = nil
	run.heapKB = resident - liveHeapKB()
	run.stepRate = quantile(roundRates, 0.5)
	return run, nil
}

// addBatch builds the environments of campaigns [from, from+n) and adds
// them to a new MultiRunner. Each environment reports to interval the time
// from its campaign's previous trial to each planned (post-bootstrap) one.
func addBatch(pl *planner, from, n int, rec *recorder, interval func(time.Duration)) (*lynceus.MultiRunner, []*plan, error) {
	start := time.Now()
	runner := lynceus.NewMultiRunner(lynceus.MultiRunnerConfig{Concurrency: clients})
	plans := make([]*plan, n)
	for k := range plans {
		p, err := pl.get(from + k)
		if err != nil {
			return nil, nil, err
		}
		plans[k] = p
		if p.job == nil {
			return nil, nil, fmt.Errorf("%s: batch workloads take lookup-table jobs", p.spec.ID)
		}
		// The job was generated with the plan, outside the timing: a batch
		// user hands the runner environments, and generating synthetic
		// datasets is not the tuner's work.
		env, err := lynceus.NewJobEnvironment(p.job)
		if err != nil {
			return nil, nil, err
		}
		// A campaign is stepped by one goroutine at a time, so last and
		// trials need no lock of their own. Bootstrap trials are not planned.
		last, trials := start, 0
		onRun := func(now time.Time) {
			if trials >= p.boot {
				interval(now.Sub(last))
			}
			last = now
			trials++
		}
		env = wrapEnv(env, rec, p.spec.ID, onRun)
		if err := runner.Add(p.spec.ID, p.spec.Tuner.TunerConfig(), env, p.spec.Options.Options()); err != nil {
			return nil, nil, err
		}
	}
	return runner, plans, nil
}
