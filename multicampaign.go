package lynceus

import (
	"context"

	"repro/internal/core"
)

// Multi-campaign tier: run N tuning campaigns concurrently over shared,
// immutable space artifacts.
//
// Campaigns added to one MultiRunner intern their configuration spaces into
// a shared registry (content-equal spaces — even distinct instances — share
// one canonical Space and its feature storage), deduplicate unit-price
// fetches per environment instance, and draw planner scratch from a bounded
// shared arena pool. Every campaign plans on its own: its trial sequence and
// recommendation remain bitwise identical to the same campaign run in
// isolation.

type (
	// ShareGroup is the shared state of a batch of campaigns: the space
	// artifact registry and the workspace arena pool. One group per
	// co-scheduled batch.
	ShareGroup = core.ShareGroup
	// MultiResult is the outcome of one campaign of a batch.
	MultiResult = core.MultiResult
	// MultiSummary is the outcome of a whole batch, with its campaigns/sec
	// throughput.
	MultiSummary = core.MultiSummary
	// CampaignFailure is the structured failure record of one campaign of a
	// batch (MultiSummary.Failures): campaign name and index, the
	// errors.Is-matchable cause, and whether re-running the campaign can
	// plausibly succeed.
	CampaignFailure = core.CampaignFailure
)

// NewShareGroup creates an empty share group, for wiring shared campaigns
// manually (StartTunerShared / ResumeTunerShared) outside a MultiRunner.
func NewShareGroup() *ShareGroup { return core.NewShareGroup() }

// MultiRunnerConfig configures a MultiRunner.
type MultiRunnerConfig struct {
	// Concurrency bounds how many campaigns step at once; 0 means
	// GOMAXPROCS. Each campaign still plans with its own TunerConfig.Workers
	// inside its step.
	Concurrency int
}

// MultiRunner drives N campaigns concurrently over one ShareGroup with fair
// round-robin scheduling: every campaign advances one trial per turn, so no
// campaign starves behind a long one.
type MultiRunner struct {
	inner *core.MultiRunner
}

// NewMultiRunner creates a runner with a fresh share group.
func NewMultiRunner(cfg MultiRunnerConfig) *MultiRunner {
	return &MultiRunner{inner: core.NewMultiRunner(cfg.Concurrency, nil)}
}

// Group returns the runner's share group.
func (r *MultiRunner) Group() *ShareGroup { return r.inner.Group() }

// Add creates a campaign with the given tuner configuration into the
// runner's share group and queues it under name. Names label results; they
// need not be unique.
func (r *MultiRunner) Add(name string, cfg TunerConfig, env Environment, opts Options) error {
	l, err := newCoreTuner(cfg)
	if err != nil {
		return err
	}
	return r.inner.Add(name, l, env, opts)
}

// AddResumed resumes a snapshotted campaign into the runner's share group
// and queues it: the resumed campaign continues its bitwise-identical trial
// sequence while sharing artifacts with the batch.
func (r *MultiRunner) AddResumed(name string, cfg TunerConfig, env Environment, snapshot []byte, fns ResumeFuncs) error {
	l, err := newCoreTuner(cfg)
	if err != nil {
		return err
	}
	c, err := l.ResumeCampaignShared(env, snapshot, fns, r.inner.Group())
	if err != nil {
		return err
	}
	r.inner.Attach(name, c)
	return nil
}

// Run steps every queued campaign to completion and returns the batch
// summary. One campaign failing is recorded in its MultiResult.Err — and as
// a structured record in MultiSummary.Failures — and does not abort the
// batch. Run can only be called once per runner.
func (r *MultiRunner) Run() (MultiSummary, error) {
	return r.inner.Run()
}

// RunContext is Run under a context: cancelling it stops every campaign at
// its next step (between trials or between planner phases) and records the
// cancellation as a transient CampaignFailure per unfinished campaign; the
// partial summary is still returned. Resuming the campaigns' snapshots
// continues them.
func (r *MultiRunner) RunContext(ctx context.Context) (MultiSummary, error) {
	return r.inner.RunContext(ctx)
}

// StartTunerShared is StartTuner into a share group: use it to wire shared
// campaigns to a custom driver instead of a MultiRunner. A nil group is
// plain StartTuner.
func StartTunerShared(cfg TunerConfig, env Environment, opts Options, g *ShareGroup) (*Tuner, error) {
	l, err := newCoreTuner(cfg)
	if err != nil {
		return nil, err
	}
	return l.NewCampaignShared(env, opts, g)
}

// ResumeTunerShared is ResumeTunerWith into a share group. A nil group is
// plain ResumeTunerWith.
func ResumeTunerShared(cfg TunerConfig, env Environment, snapshot []byte, fns ResumeFuncs, g *ShareGroup) (*Tuner, error) {
	l, err := newCoreTuner(cfg)
	if err != nil {
		return nil, err
	}
	return l.ResumeCampaignShared(env, snapshot, fns, g)
}
