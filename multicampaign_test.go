package lynceus

import (
	"math"
	"testing"
)

// multiTestConfig is the tuner configuration of the facade multi-campaign
// tests: LA=2 with incremental speculative refits — the sharing tier's
// production target.
func multiTestConfig() TunerConfig {
	return TunerConfig{Lookahead: 2, SpeculativeRefit: "incremental", Workers: 2}
}

// multiTestOptions builds a small-budget option set on the Tensorflow job.
func multiTestOptions(t *testing.T, seed int64) (Environment, Options) {
	t.Helper()
	job, err := SyntheticTensorflowJob("cnn", 42)
	if err != nil {
		t.Fatalf("SyntheticTensorflowJob: %v", err)
	}
	env, err := NewJobEnvironment(job)
	if err != nil {
		t.Fatalf("NewJobEnvironment: %v", err)
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		t.Fatalf("RuntimeForFeasibleFraction: %v", err)
	}
	return env, Options{
		Budget:            14 * job.MeanCost(),
		MaxRuntimeSeconds: tmax,
		BootstrapSize:     10,
		Seed:              seed,
	}
}

func assertSameRun(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Recommended.Config.ID != want.Recommended.Config.ID {
		t.Fatalf("%s: recommended %d, want %d", label, got.Recommended.Config.ID, want.Recommended.Config.ID)
	}
	if len(got.Trials) != len(want.Trials) {
		t.Fatalf("%s: %d trials, want %d", label, len(got.Trials), len(want.Trials))
	}
	for i := range got.Trials {
		if got.Trials[i].Config.ID != want.Trials[i].Config.ID ||
			math.Float64bits(got.Trials[i].Cost) != math.Float64bits(want.Trials[i].Cost) {
			t.Fatalf("%s: trial %d = config %d cost %v, want config %d cost %v", label, i,
				got.Trials[i].Config.ID, got.Trials[i].Cost,
				want.Trials[i].Config.ID, want.Trials[i].Cost)
		}
	}
}

// TestMultiRunnerMatchesIsolatedRuns runs a replica pair plus a
// different-seed campaign through the shared runner and pins every result to
// the same campaign run alone.
func TestMultiRunnerMatchesIsolatedRuns(t *testing.T) {
	cfg := multiTestConfig()
	seeds := map[string]int64{"replica-a": 7, "replica-b": 7, "other": 19}

	isolated := make(map[string]Result, len(seeds))
	for name, seed := range seeds {
		env, opts := multiTestOptions(t, seed)
		tuner, err := StartTuner(cfg, env, opts)
		if err != nil {
			t.Fatalf("StartTuner(%s): %v", name, err)
		}
		res, err := tuner.Run()
		if err != nil {
			t.Fatalf("isolated %s: %v", name, err)
		}
		isolated[name] = res
	}

	runner := NewMultiRunner(MultiRunnerConfig{Concurrency: 3})
	for _, name := range []string{"replica-a", "replica-b", "other"} {
		env, opts := multiTestOptions(t, seeds[name])
		if err := runner.Add(name, cfg, env, opts); err != nil {
			t.Fatalf("Add(%s): %v", name, err)
		}
	}
	summary, err := runner.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(summary.Results) != 3 {
		t.Fatalf("%d results, want 3", len(summary.Results))
	}
	for _, r := range summary.Results {
		if r.Err != nil {
			t.Fatalf("shared %s: %v", r.Name, r.Err)
		}
		if r.Steps < len(r.Result.Trials) {
			t.Errorf("%s: %d steps for %d trials", r.Name, r.Steps, len(r.Result.Trials))
		}
		assertSameRun(t, r.Name, r.Result, isolated[r.Name])
	}
	if summary.CampaignsPerSec <= 0 || summary.Elapsed <= 0 {
		t.Fatalf("summary throughput not populated: %+v", summary)
	}

	// Second Run is refused.
	if _, err := runner.Run(); err == nil {
		t.Fatal("second Run did not error")
	}
}

// TestMultiRunnerResumedCampaign snapshots a shared campaign mid-flight and
// finishes it through AddResumed in a fresh runner, expecting the isolated
// end-to-end result.
func TestMultiRunnerResumedCampaign(t *testing.T) {
	cfg := multiTestConfig()

	env, opts := multiTestOptions(t, 3)
	tuner, err := StartTuner(cfg, env, opts)
	if err != nil {
		t.Fatalf("StartTuner: %v", err)
	}
	want, err := tuner.Run()
	if err != nil {
		t.Fatalf("isolated run: %v", err)
	}

	env2, _ := multiTestOptions(t, 3)
	g := NewShareGroup()
	shared, err := StartTunerShared(cfg, env2, opts, g)
	if err != nil {
		t.Fatalf("StartTunerShared: %v", err)
	}
	for i := 0; i < 5; i++ {
		if done, err := shared.Step(); err != nil || done {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
	}
	snap, err := shared.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}

	runner := NewMultiRunner(MultiRunnerConfig{})
	env3, _ := multiTestOptions(t, 3)
	if err := runner.AddResumed("resumed", cfg, env3, snap, ResumeFuncs{}); err != nil {
		t.Fatalf("AddResumed: %v", err)
	}
	summary, err := runner.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if summary.Results[0].Err != nil {
		t.Fatalf("resumed: %v", summary.Results[0].Err)
	}
	assertSameRun(t, "resumed", summary.Results[0].Result, want)
}
