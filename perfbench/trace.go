package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	lynceus "repro"
)

// span is one timed call across a layer boundary. Spans of one campaign
// share its ID; parent is the index of the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

// recorder keeps spans in memory; write dumps them once the run ends. A nil
// recorder records nothing, which is how untraced runs stay untraced.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	open  map[string]int // campaign ID -> its open serve.handler span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: make(map[string]int)}
}

// begin opens a span and returns its index (-1 when not recording).
func (r *recorder) begin(name, id string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Start: now, Parent: parent})
	return len(r.spans) - 1
}

// end closes the span opened by begin and returns its duration.
func (r *recorder) end(i int) time.Duration {
	if r == nil || i < 0 {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = now
	return now - r.spans[i].Start
}

// setOpen marks span i as the open request span of campaign id, so spans
// recorded deeper in the server (environment runs) attach to it; i < 0
// clears the mark.
func (r *recorder) setOpen(id string, i int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 {
		delete(r.open, id)
	} else {
		r.open[id] = i
	}
}

func (r *recorder) openSpan(id string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.open[id]; ok {
		return i
	}
	return -1
}

// durations returns the durations in milliseconds of every closed span
// with the given name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// selfTimes sums, per span name, the span's duration minus the part of it
// its child spans cover: the time spent in that layer itself.
func (r *recorder) selfTimes() map[string]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent >= 0 && s.End > 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range r.spans {
		if s.End == 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		covered, cursor := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(r.spans[k].Start, cursor), min(r.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedEnv records an optimizer.env_run span around every profiling run. It
// forwards no state, so it must never wrap a stateful environment: wrapEnv
// picks timedStatefulEnv for those.
type timedEnv struct {
	inner lynceus.Environment
	rec   *recorder
	id    string
	// onRun, when set, sees every run's end time (step-interval sampling).
	onRun func(time.Time)
}

func (e *timedEnv) Space() *lynceus.Space { return e.inner.Space() }

func (e *timedEnv) UnitPricePerHour(cfg lynceus.Config) (float64, error) {
	return e.inner.UnitPricePerHour(cfg)
}

func (e *timedEnv) Run(cfg lynceus.Config) (lynceus.Trial, error) {
	i := e.rec.begin("optimizer.env_run", e.id, e.rec.openSpan(e.id))
	res, err := e.inner.Run(cfg)
	e.rec.end(i)
	if e.onRun != nil {
		e.onRun(time.Now())
	}
	return res, err
}

// timedStatefulEnv is timedEnv over a StatefulEnvironment. Forwarding the
// state is what keeps servesim's noise-stream positions inside snapshots;
// without it a resumed campaign would redraw observations already made.
type timedStatefulEnv struct {
	timedEnv
	state lynceus.StatefulEnvironment
}

func (e *timedStatefulEnv) EnvState() ([]byte, error) { return e.state.EnvState() }

func (e *timedStatefulEnv) RestoreEnvState(data []byte) error {
	return e.state.RestoreEnvState(data)
}

// wrapEnv times inner's runs under campaign id, keeping its
// StatefulEnvironment capability when it has one.
func wrapEnv(inner lynceus.Environment, rec *recorder, id string, onRun func(time.Time)) lynceus.Environment {
	t := timedEnv{inner: inner, rec: rec, id: id, onRun: onRun}
	if st, ok := inner.(lynceus.StatefulEnvironment); ok {
		return &timedStatefulEnv{timedEnv: t, state: st}
	}
	return &t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
