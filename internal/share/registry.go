// Package share implements the cross-campaign sharing layer: interned,
// immutable per-space artifacts (canonical Space, shared unit-price caches)
// and the environment wrapper that makes a campaign see the canonical space.
//
// Everything handed out by this package is either immutable after publication
// (canonical spaces) or internally synchronized (price caches, the registry
// map itself). Registry reads are lock-free: the registry swaps whole maps
// behind an atomic pointer, so the steady-state lookup is one atomic load
// plus one map read, with writers paying the copy.
package share

import (
	"sync"
	"sync/atomic"

	"repro/internal/configspace"
	"repro/internal/optimizer"
)

// Registry interns one Artifact per distinct configuration space, keyed by
// the space's content digest (configspace.Space.Digest). Campaigns created on
// content-equal spaces — even distinct *Space instances — resolve to the same
// artifact and therefore share its canonical space and price caches.
type Registry struct {
	mu       sync.Mutex
	byDigest atomic.Pointer[map[string]*Artifact]
}

// NewRegistry creates an empty artifact registry.
func NewRegistry() *Registry { return &Registry{} }

// Intern returns the artifact of the space's digest, creating it on first
// use. The first space interned under a digest becomes the canonical
// instance; later content-equal spaces resolve to it. The lookup is lock-free
// once the artifact exists.
func (r *Registry) Intern(space *configspace.Space) *Artifact {
	d := space.Digest()
	if m := r.byDigest.Load(); m != nil {
		if a, ok := (*m)[d]; ok {
			return a
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.byDigest.Load()
	if old != nil {
		if a, ok := (*old)[d]; ok {
			return a
		}
	}
	a := &Artifact{space: space, prices: make(map[optimizer.Environment]*optimizer.PriceCache)}
	next := make(map[string]*Artifact, 1)
	if old != nil {
		next = make(map[string]*Artifact, len(*old)+1)
		for k, v := range *old {
			next[k] = v
		}
	}
	next[d] = a
	r.byDigest.Store(&next)
	return a
}

// Len returns the number of interned artifacts.
func (r *Registry) Len() int {
	if m := r.byDigest.Load(); m != nil {
		return len(*m)
	}
	return 0
}

// Artifact is the shared, immutable per-space state: the canonical Space
// instance (whose FeatureColumns matrix and decoded rows every campaign on
// the space reads) and one shared unit-price cache per environment instance.
type Artifact struct {
	space *configspace.Space

	// prices maps an environment instance to its shared price cache. Keyed
	// by instance identity, not by space: two environments on the same space
	// may charge different unit prices, so only campaigns handing in the
	// same environment value share fetched prices. Environment values must
	// be comparable (every environment in this repository is a pointer).
	mu     sync.Mutex
	prices map[optimizer.Environment]*optimizer.PriceCache
}

// Space returns the canonical space instance. Read-only.
func (a *Artifact) Space() *configspace.Space { return a.space }

// PriceCache returns the shared unit-price cache of the given environment
// instance, creating it on first use. The cache fetches each configuration's
// price from the environment at most once, no matter how many campaigns on
// the artifact ask for it (optimizer.PriceCache is safe for concurrent
// lazy fetches). The cache reads prices through the canonical space, so its
// ID-keyed entries are valid for every campaign on the artifact.
func (a *Artifact) PriceCache(env optimizer.Environment) *optimizer.PriceCache {
	a.mu.Lock()
	defer a.mu.Unlock()
	if pc, ok := a.prices[env]; ok {
		return pc
	}
	pc := optimizer.NewPriceCache(WrapEnv(env, a.space))
	a.prices[env] = pc
	return pc
}
