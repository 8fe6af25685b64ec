package main

import (
	"bytes"
	"testing"

	lynceus "repro"
	"repro/internal/optimizer"
	"repro/internal/serve"
)

// TestWrapEnvKeepsStatefulness pins that the timing wrapper is a
// StatefulEnvironment exactly when the environment it wraps is one.
func TestWrapEnvKeepsStatefulness(t *testing.T) {
	sim, err := serve.BuildEnv(serve.EnvSpec{Kind: "servesim", Name: "chat", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapEnv(sim, newRecorder(), "c", nil).(lynceus.StatefulEnvironment); !ok {
		t.Fatal("wrapped servesim environment lost StatefulEnvironment")
	}
	job, err := serve.BuildEnv(serve.EnvSpec{Kind: "tensorflow", Name: "cnn", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapEnv(job, nil, "c", nil).(lynceus.StatefulEnvironment); ok {
		t.Fatal("wrapped lookup-table environment claims StatefulEnvironment")
	}
}

// TestWrappedEnvStateRoundTrips restores a wrapped servesim environment's
// state into a fresh wrapped one and checks that a repeated run observes
// what the original environment's repeat observes: the noise-stream
// positions travel through the wrapper.
func TestWrappedEnvStateRoundTrips(t *testing.T) {
	spec := serve.EnvSpec{Kind: "servesim", Name: "chat", Seed: 5}
	build := func() lynceus.Environment {
		env, err := serve.BuildEnv(spec)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	ref := build()
	cfg, err := ref.Space().Config(17)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(cfg); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	a := wrapEnv(build(), newRecorder(), "a", nil)
	if _, err := a.Run(cfg); err != nil {
		t.Fatal(err)
	}
	state, err := a.(lynceus.StatefulEnvironment).EnvState()
	if err != nil {
		t.Fatal(err)
	}
	b := wrapEnv(build(), nil, "b", nil)
	if err := b.(lynceus.StatefulEnvironment).RestoreEnvState(state); err != nil {
		t.Fatal(err)
	}
	got, err := b.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if msg := sameTrials([]lynceus.Trial{got}, []lynceus.Trial{want}); msg != "" {
		t.Fatalf("repeat run after restore: %s", msg)
	}
}

// TestWrappedServesimCampaignMatchesUnwrapped runs a servesim campaign on
// the wrapped environment, snapshotting it halfway and resuming on a fresh
// wrapped environment, and requires its trials to equal an uninterrupted
// campaign on the bare environment bitwise.
func TestWrappedServesimCampaignMatchesUnwrapped(t *testing.T) {
	spec := serve.EnvSpec{Kind: "servesim", Name: "chat", Seed: 9}
	build := func() lynceus.Environment {
		env, err := serve.BuildEnv(spec)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	sim, err := lynceus.NewServingEnvironment("chat", 0)
	if err != nil {
		t.Fatal(err)
	}
	tmax, meanCost, err := sim.ApproxStats(0.7, 96)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := optimizer.ResolveBootstrapSize(sim.Space(), lynceus.Options{Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := lynceus.TunerConfig{Myopic: true, Workers: 1}
	opts := lynceus.Options{
		Budget:            float64(boot) * meanCost * 2,
		MaxRuntimeSeconds: tmax,
		Seed:              11,
		ExtraConstraints:  []lynceus.Constraint{sim.Constraint()},
	}

	plain, err := lynceus.StartTuner(cfg, build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}

	rec := newRecorder()
	tuner, err := lynceus.StartTuner(cfg, wrapEnv(build(), rec, "w", nil), opts)
	if err != nil {
		t.Fatal(err)
	}
	for len(tuner.Trials()) < len(want.Trials)/2 {
		if _, err := tuner.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := tuner.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte(`"env_state"`)) {
		t.Fatal("snapshot of the wrapped campaign carries no environment state")
	}
	resumed, err := lynceus.ResumeTuner(cfg, wrapEnv(build(), rec, "w", nil), snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	if msg := sameTrials(got.Trials, want.Trials); msg != "" {
		t.Fatalf("wrapped campaign diverged from the bare one: %s", msg)
	}
	if runs := len(rec.durations("optimizer.env_run")); runs != len(want.Trials) {
		t.Fatalf("wrapper timed %d runs, campaign made %d", runs, len(want.Trials))
	}
}
