package core

import (
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/configspace"
	"repro/internal/optimizer"
)

// sameTrials compares two trial sequences bitwise (IDs, cost and runtime
// bits, timeout flags, extra metrics).
func sameTrials(t *testing.T, label string, got, want []optimizer.TrialResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trials, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Config.ID != w.Config.ID {
			t.Fatalf("%s: trial %d config %d, want %d", label, i, g.Config.ID, w.Config.ID)
		}
		if math.Float64bits(g.Cost) != math.Float64bits(w.Cost) ||
			math.Float64bits(g.RuntimeSeconds) != math.Float64bits(w.RuntimeSeconds) ||
			g.TimedOut != w.TimedOut {
			t.Fatalf("%s: trial %d differs: %+v vs %+v", label, i, g, w)
		}
		for k, v := range w.Extra {
			if math.Float64bits(g.Extra[k]) != math.Float64bits(v) {
				t.Fatalf("%s: trial %d extra %q = %v, want %v", label, i, k, g.Extra[k], v)
			}
		}
	}
}

func sameResult(t *testing.T, label string, got, want optimizer.Result) {
	t.Helper()
	if got.Recommended.Config.ID != want.Recommended.Config.ID {
		t.Fatalf("%s: recommended %d, want %d", label, got.Recommended.Config.ID, want.Recommended.Config.ID)
	}
	if got.RecommendedFeasible != want.RecommendedFeasible {
		t.Fatalf("%s: feasible %v, want %v", label, got.RecommendedFeasible, want.RecommendedFeasible)
	}
	if math.Float64bits(got.SpentBudget) != math.Float64bits(want.SpentBudget) {
		t.Fatalf("%s: spent %v, want %v", label, got.SpentBudget, want.SpentBudget)
	}
	sameTrials(t, label, got.Trials, want.Trials)
}

// TestSharedCampaignsBitwiseIdenticalToIsolated is the sharing determinism
// contract: a batch mixing replica campaigns (same seed), different seeds
// and a different budget, run concurrently
// through one share group, must produce exactly the trial sequences and
// recommendations of the same campaigns run alone.
func TestSharedCampaignsBitwiseIdenticalToIsolated(t *testing.T) {
	params := fastParams(2)
	params.SpeculativeRefit = SpecRefitIncremental
	l, err := New(params)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}

	type spec struct {
		name   string
		seed   int64
		budget float64
	}
	base := fixtureOptions(t, 0)
	specs := []spec{
		{name: "replica-a", seed: 5, budget: base.Budget},
		{name: "replica-b", seed: 5, budget: base.Budget},
		{name: "replica-c", seed: 5, budget: base.Budget},
		{name: "other-seed", seed: 11, budget: base.Budget},
		{name: "tight-budget", seed: 5, budget: base.Budget * 0.6},
	}

	// Isolated baselines, one campaign at a time, share-nothing.
	isolated := make(map[string]optimizer.Result, len(specs))
	for _, s := range specs {
		opts := base
		opts.Seed, opts.Budget = s.seed, s.budget
		c, err := l.NewCampaign(fixtureEnv(t), opts)
		if err != nil {
			t.Fatalf("NewCampaign(%s) error: %v", s.name, err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatalf("isolated %s: %v", s.name, err)
		}
		isolated[s.name] = res
	}

	runner := NewMultiRunner(4, nil)
	for _, s := range specs {
		opts := base
		opts.Seed, opts.Budget = s.seed, s.budget
		if err := runner.Add(s.name, l, fixtureEnv(t), opts); err != nil {
			t.Fatalf("Add(%s) error: %v", s.name, err)
		}
	}
	summary, err := runner.Run()
	if err != nil {
		t.Fatalf("Run error: %v", err)
	}
	if len(summary.Results) != len(specs) {
		t.Fatalf("%d results, want %d", len(summary.Results), len(specs))
	}
	for i, r := range summary.Results {
		if r.Name != specs[i].name {
			t.Fatalf("result %d is %q, want %q (Add order)", i, r.Name, specs[i].name)
		}
		if r.Err != nil {
			t.Fatalf("shared %s: %v", r.Name, r.Err)
		}
		sameResult(t, r.Name, r.Result, isolated[r.Name])
	}
	if summary.CampaignsPerSec <= 0 {
		t.Fatalf("CampaignsPerSec = %v", summary.CampaignsPerSec)
	}
	// The campaigns must actually have shared their space: every fixture
	// environment carries its own content-equal space instance, and the
	// group interned all of them into one artifact.
	if n := runner.Group().registry.Len(); n != 1 {
		t.Fatalf("share group holds %d space artifacts, want 1", n)
	}
}

// TestSharedResumeMidFlightNoBleed stops one campaign mid-flight, resumes it
// from its snapshot into a share group where another campaign already ran to
// completion, and checks the resumed campaign still reproduces its isolated
// run — no state bleeds across campaigns through the group.
func TestSharedResumeMidFlightNoBleed(t *testing.T) {
	params := fastParams(2)
	params.SpeculativeRefit = SpecRefitIncremental
	l, err := New(params)
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	opts := fixtureOptions(t, 9)

	// Isolated baseline.
	cIso, err := l.NewCampaign(fixtureEnv(t), opts)
	if err != nil {
		t.Fatalf("NewCampaign error: %v", err)
	}
	want, err := cIso.Run()
	if err != nil {
		t.Fatalf("isolated run: %v", err)
	}

	g := NewShareGroup()

	// An unrelated campaign (different seed) runs to completion in the
	// group first, populating the space artifact and the arena pool.
	optsOther := fixtureOptions(t, 31)
	other, err := l.NewCampaignShared(fixtureEnv(t), optsOther, g)
	if err != nil {
		t.Fatalf("NewCampaignShared error: %v", err)
	}
	if _, err := other.Run(); err != nil {
		t.Fatalf("other campaign: %v", err)
	}

	// The campaign under test starts shared, is stopped mid-flight...
	cShared, err := l.NewCampaignShared(fixtureEnv(t), opts, g)
	if err != nil {
		t.Fatalf("NewCampaignShared error: %v", err)
	}
	for i := 0; i < 6; i++ {
		done, err := cShared.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if done {
			t.Fatalf("campaign finished during warmup at step %d", i)
		}
	}
	snap, err := cShared.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot error: %v", err)
	}
	cShared = nil // abandoned mid-flight; the group must not care

	// ...and resumes into the same (now warm) group.
	resumed, err := l.ResumeCampaignShared(fixtureEnv(t), snap, ResumeFuncs{}, g)
	if err != nil {
		t.Fatalf("ResumeCampaignShared error: %v", err)
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	sameResult(t, "resumed", got, want)

	// And the other campaign's results were not disturbed either: re-running
	// its spec isolated gives the same answer.
	cOtherIso, err := l.NewCampaign(fixtureEnv(t), optsOther)
	if err != nil {
		t.Fatalf("NewCampaign error: %v", err)
	}
	wantOther, err := cOtherIso.Run()
	if err != nil {
		t.Fatalf("isolated other: %v", err)
	}
	gotOther, err := other.Result()
	if err != nil {
		t.Fatalf("other.Result error: %v", err)
	}
	sameResult(t, "other", gotOther, wantOther)
}

// TestSharedPriceFetchOnce runs two campaigns of one share group over one
// environment instance and checks each configuration's unit price was
// fetched from the environment at most once in total.
func TestSharedPriceFetchOnce(t *testing.T) {
	env := &countingJobEnv{inner: fixtureEnv(t)}
	l, err := New(fastParams(1))
	if err != nil {
		t.Fatalf("New error: %v", err)
	}
	g := NewShareGroup()
	for _, seed := range []int64{3, 4} {
		opts := fixtureOptions(t, seed)
		c, err := l.NewCampaignShared(env, opts, g)
		if err != nil {
			t.Fatalf("NewCampaignShared error: %v", err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatalf("run(seed=%d): %v", seed, err)
		}
	}
	if got, max := env.priceCalls.Load(), int64(env.Space().Size()); got > max {
		t.Fatalf("environment fetched %d unit prices, want at most one per config (%d)", got, max)
	}
}

// countingJobEnv wraps a JobEnvironment counting UnitPricePerHour calls.
type countingJobEnv struct {
	inner      *optimizer.JobEnvironment
	priceCalls atomic.Int64
}

func (e *countingJobEnv) Space() *configspace.Space { return e.inner.Space() }

func (e *countingJobEnv) Run(cfg configspace.Config) (optimizer.TrialResult, error) {
	return e.inner.Run(cfg)
}

func (e *countingJobEnv) UnitPricePerHour(cfg configspace.Config) (float64, error) {
	e.priceCalls.Add(1)
	return e.inner.UnitPricePerHour(cfg)
}
