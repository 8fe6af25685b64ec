package core

import (
	"errors"
	"runtime"

	"repro/internal/optimizer"
	"repro/internal/share"
)

// This file implements the cross-campaign sharing tier: campaigns created
// into one ShareGroup resolve content-equal spaces to one interned artifact
// (shared feature columns, shared unit-price cache) and draw path workspaces
// from a bounded shared arena pool instead of holding private ones per
// campaign. Everything shared is either immutable after publication (the
// canonical space) or internally synchronized (price caches, the arena
// pool), and none of it is an input the planner's decisions could differ
// on, so a campaign's trial sequence is the same inside or outside a group.

// ShareGroup is the shared state of a set of campaigns: the space-artifact
// registry and the workspace arena pool. Create one group per co-scheduled
// batch (MultiRunner does this) and pass it to NewCampaignShared /
// ResumeCampaignShared. All methods and the campaigns created into one group
// are safe for concurrent use; the group holds no reference to any campaign,
// so abandoning a campaign leaks nothing into the others.
type ShareGroup struct {
	registry *share.Registry
	arenas   *arenaPool
}

// NewShareGroup creates an empty share group.
func NewShareGroup() *ShareGroup {
	return &ShareGroup{
		registry: share.NewRegistry(),
		arenas:   newArenaPool(2*runtime.GOMAXPROCS(0) + 2),
	}
}

// sharedCtx is the planner-side handle of a share group binding: the
// group's arena pool and the shared price cache of the campaign's
// environment instance.
type sharedCtx struct {
	arenas *arenaPool
	prices *optimizer.PriceCache
}

// bind interns the environment's space and returns the shared context plus
// the environment the campaign must use: the original wrapped to report the
// canonical space instance (a pass-through when it already does).
func (g *ShareGroup) bind(env optimizer.Environment) (*sharedCtx, optimizer.Environment, error) {
	if env == nil {
		return nil, nil, errors.New("core: nil environment")
	}
	artifact := g.registry.Intern(env.Space())
	wrapped := share.WrapEnv(env, artifact.Space())
	return &sharedCtx{arenas: g.arenas, prices: artifact.PriceCache(env)}, wrapped, nil
}

// NewCampaignShared is NewCampaign with cross-campaign sharing: the campaign
// joins the group's space artifact (shared feature columns and unit prices)
// and, in incremental refit mode, draws its path workspaces from the group's
// arena pool. The trial sequence and recommendation are bitwise identical to
// the same campaign run in isolation. A nil group degenerates to NewCampaign.
func (l *Lynceus) NewCampaignShared(env optimizer.Environment, opts optimizer.Options, g *ShareGroup) (*Campaign, error) {
	if g == nil {
		return l.NewCampaign(env, opts)
	}
	sh, wrapped, err := g.bind(env)
	if err != nil {
		return nil, err
	}
	return l.newCampaign(wrapped, opts, sh)
}

// ResumeCampaignShared is ResumeCampaignWith into a share group: the resumed
// campaign continues its bitwise-identical trial sequence while sharing
// space artifacts and workspace arenas with the group. A nil group
// degenerates to ResumeCampaignWith.
func (l *Lynceus) ResumeCampaignShared(env optimizer.Environment, data []byte, fns ResumeFuncs, g *ShareGroup) (*Campaign, error) {
	if g == nil {
		return l.ResumeCampaignWith(env, data, fns)
	}
	sh, wrapped, err := g.bind(env)
	if err != nil {
		return nil, err
	}
	return l.resumeCampaign(wrapped, data, fns, sh)
}
