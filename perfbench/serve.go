package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	lynceus "repro"
	"repro/internal/serve"
)

// clients is the closed-loop client count: one per core, so the load never
// exceeds what the machine can plan.
var clients = runtime.NumCPU()

// serverConfig is the deployment configuration for this traffic: one step
// executor per core and the per-client limiter on, at a rate well above a
// client's closed-loop step rate, so admission runs on every request but
// never sheds. Any 429 or 503 counts as a failure.
func serverConfig(dir string, factory func(serve.EnvSpec) (lynceus.Environment, error)) serve.Config {
	return serve.Config{
		StateDir:   dir,
		Workers:    clients,
		Rate:       2000,
		Burst:      2000,
		EnvFactory: factory,
	}
}

// liveServer is the server behind the benchmark's fixed httptest listener;
// a restart swaps it under the gate.
type liveServer struct {
	gate    sync.RWMutex // clients hold R per request; the restart holds W
	srv     atomic.Pointer[serve.Server]
	handler atomic.Pointer[http.Handler]
}

func (l *liveServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*l.handler.Load()).ServeHTTP(w, r)
}

func (l *liveServer) open(cfg serve.Config, rec *recorder) error {
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	if rec != nil {
		h = traceHandler(h, rec)
	}
	l.srv.Store(srv)
	l.handler.Store(&h)
	return nil
}

// traceHandler is the middleware around Server.Handler that records a
// serve.handler span per step request, parented to the client's span and
// marked open so environment runs of that campaign attach to it.
func traceHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The middleware runs before the server's mux matches the route,
		// so the campaign ID comes from the path itself.
		id, isStep := strings.CutSuffix(strings.TrimPrefix(r.URL.Path, "/campaigns/"), "/step")
		if r.Method != http.MethodPost || !isStep || r.Header.Get("X-Bench-Span") == "" {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		i := rec.begin("serve.handler", id, parent)
		rec.setOpen(id, i)
		next.ServeHTTP(w, r)
		rec.setOpen(id, -1)
		rec.end(i)
	})
}

// runServe drives a served workload: each of the closed-loop clients
// creates campaigns and steps each one, a request per step, until done,
// for the given duration; campaigns in flight at the deadline run to
// completion.
func runServe(w workload, pl *planner, seconds float64, dir string, rec *recorder) (*pass, error) {
	run := &pass{served: make(map[string]lynceus.Result)}
	factory := serve.BuildEnv
	if rec != nil {
		factory = func(spec serve.EnvSpec) (lynceus.Environment, error) {
			env, err := serve.BuildEnv(spec)
			if err != nil {
				return nil, err
			}
			return wrapEnv(env, rec, pl.idOfSeed(spec.Seed), nil), nil
		}
	}
	cfg := serverConfig(dir, factory)
	live := &liveServer{}
	if err := live.open(cfg, rec); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(live)
	defer ts.Close()
	transport := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}

	var (
		mu       sync.Mutex
		next     atomic.Int64
		lastErr  error
		finished []*plan
		// spans holds every step's [sent, answered] interval, in seconds
		// from the start of the run.
		spans [][2]float64
	)
	counters := &statsDelta{}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))

	// The queue sampler is the only writer of run.queueMax until samplerDone.
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		if rec == nil {
			return
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				run.queueMax = max(run.queueMax, live.srv.Load().Stats().QueueLen)
			}
		}
	}()

	restartDone := make(chan error, 1)
	if w.operated {
		go func() {
			time.Sleep(time.Until(start.Add(deadline.Sub(start) / 2)))
			restartDone <- restartServer(live, cfg, rec, client, ts.URL, counters, run)
		}()
	} else {
		restartDone <- nil
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &serveClient{http: client, base: ts.URL, id: fmt.Sprintf("client-%d", c), live: live, rec: rec, reads: w.operated}
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				p, err := pl.get(i)
				if err == nil {
					err = cl.campaign(p)
				}
				mu.Lock()
				run.stepMS = append(run.stepMS, cl.steps...)
				run.steps += cl.stepCount
				for _, sp := range cl.stepSpans {
					spans = append(spans, [2]float64{sp[0].Sub(start).Seconds(), sp[1].Sub(start).Seconds()})
				}
				run.readMS = append(run.readMS, cl.readsMS...)
				run.attempted += cl.attempted
				run.failed += cl.failed
				if err == nil {
					finished = append(finished, p)
					run.served[p.spec.ID] = cl.result
				}
				if err != nil && lastErr == nil {
					lastErr = err
				}
				mu.Unlock()
				cl.reset()
				if err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.stepRate = windowRate(spans, seconds, rateWindow)
	close(stopSampler)
	<-samplerDone
	if err := <-restartDone; err != nil && lastErr == nil {
		lastErr = err
	}
	if lastErr != nil {
		live.srv.Load().Close()
		return nil, lastErr
	}
	if err := counters.add(client, ts.URL); err != nil {
		return nil, err
	}
	// Judging runs the benchmark's oracle, so it waits until the clock stops.
	for _, p := range finished {
		o, err := judge(p, run.served[p.spec.ID])
		if err != nil {
			return nil, err
		}
		run.outcomes = append(run.outcomes, o)
	}
	run.rejected, run.rollbacks = counters.rejected, counters.rollbacks
	// The heap the server holds for its campaigns: resident now, minus what
	// is left once the server is gone.
	resident := liveHeapKB()
	if err := live.srv.Load().Drain(context.Background()); err != nil {
		return nil, err
	}
	live.srv.Load().Close()
	ts.Close()
	transport.CloseIdleConnections()
	live.srv.Store(nil)
	live.handler.Store(nil)
	run.heapKB = resident - liveHeapKB()
	if rec != nil {
		run.handlerMS = rec.durations("serve.handler")
		run.overheadMS = httpOverhead(rec)
	}
	return run, nil
}

// restartServer is an operator restart halfway through the run: it stops
// new requests at the gate, drains and closes the server, then times
// serve.New on the populated state directory until /readyz answers OK with
// every campaign resumed.
func restartServer(live *liveServer, cfg serve.Config, rec *recorder, client *http.Client, base string, counters *statsDelta, run *pass) error {
	live.gate.Lock()
	defer live.gate.Unlock()
	old := live.srv.Load()
	if err := counters.add(client, base); err != nil {
		return err
	}
	if err := old.Drain(context.Background()); err != nil {
		return err
	}
	old.Close()
	persisted := old.Stats().Campaigns
	t0 := time.Now()
	if err := live.open(cfg, rec); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	for {
		resp, err := client.Get(base + "/readyz")
		if err != nil {
			return fmt.Errorf("restart: readyz: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		time.Sleep(time.Millisecond)
	}
	run.restart = time.Since(t0)
	if got := live.srv.Load().Stats(); int(got.ResumedOnStart) != persisted || got.Quarantined != 0 {
		return fmt.Errorf("restart resumed %d of %d campaigns (%d quarantined)", got.ResumedOnStart, persisted, got.Quarantined)
	}
	return nil
}

// statsDelta sums the failure counters of /stats over server lifetimes.
type statsDelta struct{ rejected, rollbacks uint64 }

func (d *statsDelta) add(client *http.Client, base string) error {
	var st serve.Stats
	if _, err := doJSON(client, http.MethodGet, base+"/stats", nil, nil, &st); err != nil {
		return err
	}
	d.rejected += st.RejectedRate + st.RejectedQueue + st.RejectedBusy + st.RejectedDraining + st.RejectedCap
	d.rollbacks += st.Rollbacks
	return nil
}

// serveClient is one closed-loop tenant.
type serveClient struct {
	http  *http.Client
	base  string
	id    string
	live  *liveServer
	rec   *recorder
	reads bool

	steps, readsMS    []float64 // latencies of planned steps and of reads, ms
	stepCount         int       // steps of every kind, bootstrap included
	stepSpans         [][2]time.Time
	attempted, failed int
	result            lynceus.Result
}

func (c *serveClient) reset() {
	c.steps, c.readsMS, c.stepSpans = c.steps[:0], c.readsMS[:0], c.stepSpans[:0]
	c.stepCount, c.attempted, c.failed = 0, 0, 0
}

// maxRetries bounds consecutive failed requests of one operation before the
// run gives up; a failure is counted either way.
const maxRetries = 20

// call issues one request under the restart gate, retrying failures (each
// counted) up to maxRetries. It returns the latency of the successful try.
func (c *serveClient) call(method, path, spanName, spanID string, body, out any) (time.Duration, error) {
	for try := 0; ; try++ {
		c.live.gate.RLock()
		i := c.rec.begin(spanName, spanID, -1)
		hdr := http.Header{"X-Client-ID": {c.id}}
		if i >= 0 {
			hdr.Set("X-Bench-Span", strconv.Itoa(i))
		}
		t0 := time.Now()
		code, err := doJSON(c.http, method, c.base+path, hdr, body, out)
		d := time.Since(t0)
		c.rec.end(i)
		c.live.gate.RUnlock()
		c.attempted++
		if err == nil {
			return d, nil
		}
		c.failed++
		if try >= maxRetries {
			return 0, fmt.Errorf("%s %s: %d failures, last (status %d): %w", method, path, try+1, code, err)
		}
		time.Sleep(time.Duration(try+1) * time.Millisecond)
	}
}

// campaign submits one campaign and steps it to done.
func (c *serveClient) campaign(p *plan) error {
	id := p.spec.ID
	create := map[string]any{"id": id, "env": p.spec.Env, "tuner": p.spec.Tuner, "options": p.spec.Options}
	if _, err := c.call(http.MethodPost, "/campaigns", "client.create", id, create, nil); err != nil {
		return err
	}
	for step := 0; ; step++ {
		var st serve.CampaignStatus
		d, err := c.call(http.MethodPost, "/campaigns/"+id+"/step", "client.step", id, nil, &st)
		if err != nil {
			return err
		}
		c.stepCount++
		now := time.Now()
		c.stepSpans = append(c.stepSpans, [2]time.Time{now.Add(-d), now})
		if step >= p.boot {
			c.steps = append(c.steps, ms(d))
		}
		if st.Done {
			break
		}
		if c.reads {
			d, err := c.call(http.MethodGet, "/campaigns/"+id, "client.read", id, nil, &st)
			if err != nil {
				return err
			}
			c.readsMS = append(c.readsMS, ms(d))
		}
	}
	c.result = lynceus.Result{}
	_, err := c.call(http.MethodGet, "/campaigns/"+id+"/recommendation", "client.recommendation", id, nil, &c.result)
	return err
}

// doJSON sends body (nil for none) as JSON and decodes a 2xx reply into
// out. Any other status is an error.
func doJSON(client *http.Client, method, url string, hdr http.Header, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, errors.New(string(bytes.TrimSpace(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// httpOverhead returns, per traced step request, the client round trip
// minus the time spent inside the server's handler.
func httpOverhead(rec *recorder) []float64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	handler := make(map[int]time.Duration)
	for _, s := range rec.spans {
		if s.Name == "serve.handler" && s.Parent >= 0 && s.End > 0 {
			handler[s.Parent] = s.End - s.Start
		}
	}
	var out []float64
	for i, s := range rec.spans {
		if h, ok := handler[i]; ok && s.End > 0 {
			out = append(out, ms(s.End-s.Start-h))
		}
	}
	return out
}
