package main

import (
	"fmt"
	"math"
	"sync"

	lynceus "repro"
	"repro/internal/optimizer"
	"repro/internal/serve"
)

// mixEntry is one job of a workload's campaign mix. An empty scout name
// rotates through the 18 Scout jobs.
type mixEntry struct{ kind, name string }

// workload is one named traffic mix. Campaign i of a run is a pure
// function of (workload seed, i): its job, job seed and campaign seed, so
// the same seed always submits the same campaigns.
type workload struct {
	name  string
	mix   []mixEntry
	tuner serve.TunerSpec
	// budgetMult sizes each campaign's budget as a multiple of its expected
	// bootstrap cost (the paper's b; 3 is its medium budget).
	budgetMult float64
	// batchSize > 0 runs the campaigns through lynceus.MultiRunner in
	// batches of that size; 0 serves them through serve.Server over HTTP.
	batchSize int
	// operated adds what an operated server sees besides steps: a status
	// read between steps and a drain, close and reopen halfway.
	operated bool
}

var workloads = map[string]workload{
	"serve-lookahead": {
		name:       "serve-lookahead",
		mix:        []mixEntry{{"scout", ""}},
		tuner:      serve.TunerSpec{Lookahead: 2, SpeculativeRefit: "incremental", Workers: 1},
		budgetMult: 3,
	},
	"serve-myopic": {
		name:       "serve-myopic",
		mix:        []mixEntry{{"tensorflow", "cnn"}, {"tensorflow", "rnn"}, {"tensorflow", "multilayer"}, {"servesim", "chat"}},
		tuner:      serve.TunerSpec{Myopic: true, Workers: 1},
		budgetMult: 3,
		operated:   true,
	},
	"batch-full": {
		name:       "batch-full",
		mix:        []mixEntry{{"scout", ""}},
		tuner:      serve.TunerSpec{Lookahead: 2, SpeculativeRefit: "full", Workers: 1},
		budgetMult: 3,
		batchSize:  6,
	},
}

// plan is one campaign: the spec a tenant submits plus the benchmark's
// ground-truth oracle for judging its recommendation.
type plan struct {
	spec serve.CampaignSpec
	boot int // bootstrap size: steps before the first planned decision
	// stochastic jobs observe noise: a recommendation can be feasible as
	// observed yet infeasible on ground truth.
	stochastic bool
	optimum    float64      // ground-truth cost of the best feasible configuration
	job        *lynceus.Job // the lookup-table job; nil for servesim
	// truth returns a configuration's ground-truth cost and whether it meets
	// every constraint of the spec.
	truth func(configID int) (cost float64, feasible bool, err error)
}

// planner builds plans, caching what is shared across campaigns: the
// servesim ground truth depends only on the profile, never on the seed.
type planner struct {
	w    workload
	seed int64

	mu     sync.Mutex
	plans  map[int]*plan
	sims   map[string]*simTruth
	bySeed map[int64]string // job seed -> campaign ID
	boots  map[string]int   // campaign ID -> bootstrap size

	scout     []*lynceus.Job // the Scout jobs of scoutSeed
	scoutSeed int64
}

type simTruth struct {
	env            *lynceus.ServingEnvironment
	tmax, meanCost float64
	optimum        float64
	mu             sync.Mutex
	stats          map[int][2]float64 // configID -> (cost, feasible as 0/1)
}

func newPlanner(w workload, seed int64) *planner {
	return &planner{w: w, seed: seed, plans: make(map[int]*plan), sims: make(map[string]*simTruth),
		bySeed: make(map[int64]string), boots: make(map[string]int)}
}

// idOfSeed maps an environment's job seed back to its campaign ID, which is
// how environment spans recorded inside the server find their campaign.
func (p *planner) idOfSeed(seed int64) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bySeed[seed]
}

// truthReps is the number of replications behind a servesim ground-truth
// value, as in the repository's campaign-quality tests.
const truthReps = 5

// scoutJobs is the number of Scout jobs one generator seed yields.
const scoutJobs = 18

// seeds derives campaign i's job seed and campaign seed. Campaign seeds
// are distinct across the campaigns of a run and across workload seeds.
// Job seeds are too, except that a Scout seed generates all 18 Scout jobs
// at once, so 18 consecutive Scout campaigns share one seed across 18
// different jobs: no two campaigns tune the same (job, seed).
func (p *planner) seeds(i int) (jobSeed, campaignSeed int64) {
	base := p.seed*1_000_003 + int64(i)*7919
	jobSeed = base + 1
	if p.w.mix[i%len(p.w.mix)].kind == "scout" {
		jobSeed = p.seed*1_000_003 + int64(i/scoutJobs)*7919 + 1
	}
	return jobSeed, base + 2
}

// get returns campaign i's plan, building it on first use.
func (p *planner) get(i int) (*plan, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pl, ok := p.plans[i]; ok {
		return pl, nil
	}
	pl, err := p.build(i)
	if err != nil {
		return nil, fmt.Errorf("campaign %d: %w", i, err)
	}
	p.plans[i] = pl
	p.bySeed[pl.spec.Env.Seed] = pl.spec.ID
	p.boots[pl.spec.ID] = pl.boot
	return pl, nil
}

func (p *planner) build(i int) (*plan, error) {
	entry := p.w.mix[i%len(p.w.mix)]
	jobSeed, campaignSeed := p.seeds(i)
	spec := serve.CampaignSpec{
		ID:    fmt.Sprintf("%s-%06d", p.w.name, i),
		Env:   serve.EnvSpec{Kind: entry.kind, Name: entry.name, Seed: jobSeed},
		Tuner: p.w.tuner,
	}
	if entry.kind == "servesim" {
		st, err := p.simTruth(entry.name)
		if err != nil {
			return nil, err
		}
		boot, err := optimizer.ResolveBootstrapSize(st.env.Space(), lynceus.Options{Budget: 1, MaxRuntimeSeconds: 1})
		if err != nil {
			return nil, err
		}
		spec.Options = serve.OptionsSpec{
			Budget:            float64(boot) * st.meanCost * p.w.budgetMult,
			MaxRuntimeSeconds: st.tmax,
			Seed:              campaignSeed,
			ExtraConstraints:  []lynceus.Constraint{st.env.Constraint()},
		}
		return &plan{spec: spec, boot: boot, stochastic: true, optimum: st.optimum, truth: st.truth}, nil
	}

	job, err := p.buildJob(entry.kind, entry.name, jobSeed, i)
	if err != nil {
		return nil, err
	}
	if entry.kind == "scout" {
		spec.Env.Name = job.Name()
	}
	tmax, err := job.RuntimeForFeasibleFraction(0.5)
	if err != nil {
		return nil, err
	}
	boot, err := optimizer.ResolveBootstrapSize(job.Space(), lynceus.Options{Budget: 1, MaxRuntimeSeconds: 1})
	if err != nil {
		return nil, err
	}
	best, err := job.Optimum(tmax)
	if err != nil {
		return nil, err
	}
	spec.Options = serve.OptionsSpec{
		Budget:            float64(boot) * job.MeanCost() * p.w.budgetMult,
		MaxRuntimeSeconds: tmax,
		Seed:              campaignSeed,
	}
	truth := func(id int) (float64, bool, error) {
		m, err := job.Measurement(id)
		if err != nil {
			return 0, false, err
		}
		return m.Cost, !m.TimedOut && m.RuntimeSeconds <= tmax, nil
	}
	return &plan{spec: spec, boot: boot, optimum: best.Cost, job: job, truth: truth}, nil
}

// buildJob generates the lookup-table job the server will rebuild from the
// spec; Scout campaigns rotate through the Scout jobs by campaign index.
// Caller holds p.mu.
func (p *planner) buildJob(kind, name string, seed int64, i int) (*lynceus.Job, error) {
	switch kind {
	case "tensorflow":
		return lynceus.SyntheticTensorflowJob(name, seed)
	case "scout":
		if p.scoutSeed != seed || p.scout == nil {
			jobs, err := lynceus.SyntheticScoutJobs(seed)
			if err != nil {
				return nil, err
			}
			p.scout, p.scoutSeed = jobs, seed
		}
		return p.scout[i%len(p.scout)], nil
	}
	return nil, fmt.Errorf("unknown job kind %q", kind)
}

// simTruth returns the servesim profile's ground truth, scanning the space
// for its optimum once per run. Caller holds p.mu.
func (p *planner) simTruth(profile string) (*simTruth, error) {
	if st, ok := p.sims[profile]; ok {
		return st, nil
	}
	env, err := lynceus.NewServingEnvironment(profile, 0)
	if err != nil {
		return nil, err
	}
	tmax, meanCost, err := env.ApproxStats(0.7, 96)
	if err != nil {
		return nil, err
	}
	best, err := env.Optimum(tmax, truthReps)
	if err != nil {
		return nil, err
	}
	st := &simTruth{env: env, tmax: tmax, meanCost: meanCost, optimum: best.MeanCost, stats: make(map[int][2]float64)}
	p.sims[profile] = st
	return st, nil
}

func (st *simTruth) truth(id int) (float64, bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if v, ok := st.stats[id]; ok {
		return v[0], v[1] == 1, nil
	}
	ts, err := st.env.True(id, truthReps)
	if err != nil {
		return 0, false, err
	}
	feasible := ts.MeanMakespan <= st.tmax && ts.MeanViolation <= st.env.Constraint().Max
	v := [2]float64{ts.MeanCost, 0}
	if feasible {
		v[1] = 1
	}
	st.stats[id] = v
	return ts.MeanCost, feasible, nil
}

// outcome is one finished campaign as the benchmark judged it.
type outcome struct {
	ratio float64 // ground-truth cost of the recommendation / optimum
	spent float64
	// truthViolation marks a stochastic job's recommendation that was
	// feasible as observed but misses a constraint on ground truth.
	truthViolation bool
}

// judge checks a finished campaign against ground truth: no trial started
// after the budget was spent, the recommendation met every constraint when
// profiled and, on a deterministic job, also meets it on ground truth, where
// its cost is then no better than the optimum's. Callers pass only campaigns
// that reached done: served ones whose last step reported done, batch ones
// the runner finished without error.
func judge(pl *plan, res lynceus.Result) (outcome, error) {
	out := outcome{spent: res.SpentBudget}
	if n := len(res.Trials); n > 0 {
		before := res.SpentBudget - res.Trials[n-1].Cost
		if before >= pl.spec.Options.Budget {
			return out, fmt.Errorf("%s: a trial started after the budget was spent (%.6g of %.6g)",
				pl.spec.ID, before, pl.spec.Options.Budget)
		}
	}
	if !res.RecommendedFeasible {
		return out, fmt.Errorf("%s: no feasible configuration recommended", pl.spec.ID)
	}
	cost, feasible, err := pl.truth(res.Recommended.Config.ID)
	if err != nil {
		return out, err
	}
	out.ratio = cost / pl.optimum
	if !feasible {
		if !pl.stochastic {
			return out, fmt.Errorf("%s: recommended config %d violates a constraint on ground truth",
				pl.spec.ID, res.Recommended.Config.ID)
		}
		// One noisy observation per configuration can pass a constraint
		// the configuration's mean misses; that is counted, not failed.
		out.truthViolation = true
		return out, nil
	}
	if out.ratio < 1-1e-9 || math.IsNaN(out.ratio) {
		return out, fmt.Errorf("%s: cost ratio %v below the optimum", pl.spec.ID, out.ratio)
	}
	return out, nil
}

// bootstrapOf returns the bootstrap size of a campaign by ID.
func (p *planner) bootstrapOf(id string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.boots[id]
}
