// Multi-campaign example: run a batch of tuning campaigns with distinct
// seeds concurrently through one MultiRunner and check every campaign
// against the same campaign run alone.
//
// Multi-tenant tuning services face this shape of load: many tenants tune
// jobs over the same configuration space at the same time. The runner steps
// the campaigns fairly (one trial per turn) over one share group, which
// interns the space artifacts (feature matrix, decoded rows, prices) once per
// space and pools the planner's path workspaces. Each campaign still plans
// on its own, so its trial sequence and recommendation stay bitwise
// identical to the same campaign run alone. The example proves that
// equivalence directly, then reports the batch throughput.
//
//	go run ./examples/multicampaign
//	go run ./examples/multicampaign -campaigns 4 -seed 10
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	lynceus "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "multicampaign:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		campaigns = flag.Int("campaigns", 8, "campaigns in the batch")
		seed      = flag.Int64("seed", 1, "seed of the first campaign; campaign i uses seed+i")
	)
	flag.Parse()

	job, err := lynceus.SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		return err
	}
	env, err := lynceus.NewJobEnvironment(job)
	if err != nil {
		return err
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		return err
	}
	cfg := lynceus.TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental"}
	optsFor := func(i int) lynceus.Options {
		return lynceus.Options{
			Budget:            16 * job.MeanCost(),
			MaxRuntimeSeconds: tmax,
			Seed:              *seed + int64(i),
		}
	}

	fmt.Printf("batch of %d LA=2 campaigns on %s (%d configurations), seeds %d..%d\n\n",
		*campaigns, job.Name(), job.Size(), *seed, *seed+int64(*campaigns-1))

	runner := lynceus.NewMultiRunner(lynceus.MultiRunnerConfig{})
	for i := 0; i < *campaigns; i++ {
		if err := runner.Add(fmt.Sprintf("campaign-%d", i), cfg, env, optsFor(i)); err != nil {
			return err
		}
	}
	batch, err := runner.Run()
	if err != nil {
		return err
	}
	for _, r := range batch.Results {
		if r.Err != nil {
			return fmt.Errorf("batch %s: %w", r.Name, r.Err)
		}
	}
	fmt.Printf("  batch     %8s  %6.2f campaigns/sec\n",
		batch.Elapsed.Round(time.Millisecond), batch.CampaignsPerSec)

	// Running in a batch must never change results: pin every campaign to
	// the same campaign run alone with StartTuner, trial by trial.
	start := time.Now()
	for i, r := range batch.Results {
		tuner, err := lynceus.StartTuner(cfg, env, optsFor(i))
		if err != nil {
			return err
		}
		alone, err := tuner.Run()
		if err != nil {
			return fmt.Errorf("isolated %s: %w", r.Name, err)
		}
		if err := sameRun(r.Result, alone); err != nil {
			return fmt.Errorf("campaign %s diverged from its isolated run: %w", r.Name, err)
		}
	}
	fmt.Printf("  isolated  %8s  (one campaign at a time)\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Println("  every campaign bitwise identical to its isolated run")
	for _, r := range batch.Results[:min(3, len(batch.Results))] {
		fmt.Printf("  %-12s -> %s ($%.4f, %d explorations)\n",
			r.Name, job.Space().Describe(r.Result.Recommended.Config),
			r.Result.Recommended.Cost, r.Result.Explorations)
	}
	return nil
}

// sameRun verifies two results profiled the same configurations in the same
// order at bit-identical costs and agree on the recommendation.
func sameRun(a, b lynceus.Result) error {
	if len(a.Trials) != len(b.Trials) {
		return fmt.Errorf("trial counts differ: %d vs %d", len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		ta, tb := a.Trials[i], b.Trials[i]
		if ta.Config.ID != tb.Config.ID || math.Float64bits(ta.Cost) != math.Float64bits(tb.Cost) {
			return fmt.Errorf("trial %d differs: config %d cost %v vs config %d cost %v",
				i, ta.Config.ID, ta.Cost, tb.Config.ID, tb.Cost)
		}
	}
	if a.Recommended.Config.ID != b.Recommended.Config.ID {
		return fmt.Errorf("recommendations differ: %d vs %d",
			a.Recommended.Config.ID, b.Recommended.Config.ID)
	}
	return nil
}
