package share

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/configspace"
	"repro/internal/optimizer"
)

func testSpace(t *testing.T) *configspace.Space {
	t.Helper()
	s, err := configspace.New([]configspace.Dimension{
		{Name: "n", Values: []float64{1, 2, 4}},
		{Name: "hw", Values: []float64{0, 1}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// countingEnv is a minimal environment that counts price fetches.
type countingEnv struct {
	space      *configspace.Space
	priceCalls atomic.Int64
}

func (e *countingEnv) Space() *configspace.Space { return e.space }

func (e *countingEnv) Run(cfg configspace.Config) (optimizer.TrialResult, error) {
	return optimizer.TrialResult{Config: cfg, Cost: 1, RuntimeSeconds: 1, UnitPricePerHour: 1}, nil
}

func (e *countingEnv) UnitPricePerHour(cfg configspace.Config) (float64, error) {
	e.priceCalls.Add(1)
	return 0.5 + float64(cfg.ID), nil
}

func TestRegistryInternsByDigest(t *testing.T) {
	r := NewRegistry()
	s1 := testSpace(t)
	s2 := testSpace(t) // distinct instance, equal content
	a1 := r.Intern(s1)
	a2 := r.Intern(s2)
	if a1 != a2 {
		t.Fatal("content-equal spaces interned as distinct artifacts")
	}
	if a1.Space() != s1 {
		t.Fatal("first interned space is not the canonical instance")
	}
	if r.Len() != 1 {
		t.Fatalf("registry holds %d artifacts, want 1", r.Len())
	}

	other, err := configspace.New([]configspace.Dimension{{Name: "x", Values: []float64{1, 2}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Intern(other) == a1 {
		t.Fatal("different space shares an artifact")
	}
	if r.Len() != 2 {
		t.Fatalf("registry holds %d artifacts, want 2", r.Len())
	}
}

func TestRegistryInternConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	arts := make([]*Artifact, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i] = r.Intern(testSpace(t))
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if arts[i] != arts[0] {
			t.Fatal("concurrent interns produced distinct artifacts")
		}
	}
}

func TestArtifactPriceCacheSharedPerEnvInstance(t *testing.T) {
	r := NewRegistry()
	env := &countingEnv{space: testSpace(t)}
	a := r.Intern(env.Space())

	pc1 := a.PriceCache(env)
	pc2 := a.PriceCache(env)
	if pc1 != pc2 {
		t.Fatal("same environment instance got two price caches")
	}
	for round := 0; round < 3; round++ {
		for id := 0; id < env.Space().Size(); id++ {
			p, err := pc1.UnitPrice(id)
			if err != nil {
				t.Fatal(err)
			}
			if want := 0.5 + float64(id); p != want {
				t.Fatalf("price of %d = %v, want %v", id, p, want)
			}
		}
	}
	if got := env.priceCalls.Load(); got != int64(env.Space().Size()) {
		t.Fatalf("environment fetched %d prices, want one per config (%d)", got, env.Space().Size())
	}

	// A different environment instance on the same space must not share
	// fetched prices: its price list may differ.
	env2 := &countingEnv{space: testSpace(t)}
	if a.PriceCache(env2) == pc1 {
		t.Fatal("distinct environment instances share a price cache")
	}
}

func TestWrapEnv(t *testing.T) {
	canonical := testSpace(t)
	env := &countingEnv{space: testSpace(t)}
	w := WrapEnv(env, canonical)
	if w == optimizer.Environment(env) {
		t.Fatal("wrapper expected for a non-canonical space")
	}
	if w.Space() != canonical {
		t.Fatal("wrapper does not report the canonical space")
	}
	cfg, err := canonical.Config(3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := w.Run(cfg)
	if err != nil || tr.Config.ID != 3 {
		t.Fatalf("wrapped Run: %+v, %v", tr, err)
	}
	if _, stateful := w.(optimizer.StatefulEnvironment); stateful {
		t.Fatal("plain environment wrapped as stateful")
	}

	// An environment already on the canonical instance passes through.
	envC := &countingEnv{space: canonical}
	if WrapEnv(envC, canonical) != optimizer.Environment(envC) {
		t.Fatal("canonical-space environment was wrapped")
	}
}
