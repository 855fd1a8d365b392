package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"memdep/internal/engine"
	"memdep/internal/experiments"
	"memdep/internal/multiscalar"
	"memdep/internal/program"
	"memdep/internal/store"
	"memdep/internal/synth"
	"memdep/internal/trace"
	"memdep/sim"
)

// The traced run gives the per-layer numbers: one engine worker and one
// client, so that spans add up.  A first pass makes each request's
// end-to-end call as the workload makes it, with the facade, the engine,
// HTTP and the fleet called beside it on the same request; a second pass
// calls build, trace, preprocess, simulate and the store directly on the
// same input.  Every call is a span under the request's root span, and
// layer self times follow from the spans of one request:
//
//	http.self       = HTTP round trip - in-process facade run
//	facade.self     = facade memo hit - engine memo hit
//	preprocess.self = preprocess - trace
//	fleet.proxy     = routed round trip - direct-to-worker round trip
//
// The end-to-end time is the mean of the end-to-end call's own span: the
// HTTP round trip, or the facade run on paper-sweep.  The layers on the
// workload's path account for it with times measured apart from that call:
// http.self, the facade's own work on a memo hit, the engine hit, and the
// direct build, trace, preprocess, simulate and store calls of the second
// pass.  unattributed_ms is what they leave of the end-to-end time, so it
// is the residual of the path's facade run (facade run - facade hit -
// direct layer work) and may be negative.  The benchmark's own glue
// between calls, the root spans' self time, is logged but is in no metric.

// Sizes of the traced run.
const (
	tracedCells    = 24   // paper-grid cells sampled per traced run
	tracedCold     = 36   // cold requests per traced run: one block
	untracedHotOps = 1000 // untraced warm round trips (p99 with 10 beyond)
)

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// open starts a span and returns its id; close ends it.
func (t *tracer) open(name string, req, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) close(id int) { t.spans[id-1].End = time.Since(t.t0).Nanoseconds() }

// timed runs fn as a span.
func (t *tracer) timed(name string, req, parent int, fn func() error) (int, error) {
	id := t.open(name, req, parent)
	err := fn()
	t.close(id)
	return id, err
}

// attr records a count on a span.
func (t *tracer) attr(id int, key string, v int64) {
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]int64{}
	}
	s.Attrs[key] = v
}

// timedAllocs is timed plus the heap allocations fn made.  It collects
// garbage first, so fn does not pay for its predecessors' garbage; the
// collection and heap snapshots are spans of their own.
func (t *tracer) timedAllocs(name string, req, parent int, fn func() error) (int, error) {
	var m0, m1 runtime.MemStats
	t.timed("gc", req, parent, func() error { runtime.GC(); return nil })
	t.timed("memstats", req, parent, func() error { runtime.ReadMemStats(&m0); return nil })
	id, err := t.timed(name, req, parent, fn)
	t.timed("memstats", req, parent, func() error { runtime.ReadMemStats(&m1); return nil })
	t.attr(id, "allocs", int64(m1.Mallocs-m0.Mallocs))
	t.attr(id, "alloc_bytes", int64(m1.TotalAlloc-m0.TotalAlloc))
	return id, err
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	e env
	// inProcess is set for paper-sweep, whose path is the in-process
	// session; the other workloads reach a standalone server over HTTP.
	inProcess bool
	// cold is set for cold-requests: nothing is computed before a request
	// is traced.
	cold   bool
	reqs   []sim.Request
	ins    []layerInput
	bodies [][]byte // request payloads
	tr     *tracer
	client *http.Client
	srv    *server // standalone, one engine worker
	fl     *fleet  // coordinator and one worker
	twin   *sim.Session
	eng    *engine.Engine
	probe  *store.Store
	arena  *multiscalar.Simulator
	out    *outcome
}

// runTraced is the traced run of e.workload.
func runTraced(ctx context.Context, e env) (*outcome, error) {
	r := &tracedRun{e: e, tr: &tracer{}, client: newClient(1), out: newOutcome()}
	switch e.workload {
	case "paper-sweep":
		r.inProcess, r.reqs = true, paperCells(e.seed)[:tracedCells]
	case "cold-requests":
		r.cold, r.reqs = true, synthRequests(e.seed, nsTraced, tracedCold)
	case "warm-hits":
		r.reqs = synthRequests(e.seed, nsHot, hotSetSize)
	}
	var err error
	if r.bodies, err = encodeRequests(r.reqs); err != nil {
		return nil, err
	}
	for _, req := range r.reqs {
		in, err := lower(req)
		if err != nil {
			return nil, err
		}
		r.ins = append(r.ins, in)
	}

	srvStore, err := freshDir(e, "store")
	if err != nil {
		return nil, err
	}
	if r.srv, err = startServer(ctx, e.server, "-jobs", "1", "-store", srvStore); err != nil {
		return nil, err
	}
	defer r.srv.stop()
	workerStore, err := freshDir(e, "store")
	if err != nil {
		return nil, err
	}
	if r.fl, err = startFleet(ctx, e, workerStore); err != nil {
		return nil, err
	}
	defer r.fl.stop()
	probeStore, err := freshDir(e, "store")
	if err != nil {
		return nil, err
	}
	// The in-process twin mirrors the session on the workload's path: a
	// store under the servers, none in paper-sweep's own session.
	twinOpts := []sim.Option{sim.WithWorkers(1)}
	if !r.inProcess {
		twinStore, err := freshDir(e, "store")
		if err != nil {
			return nil, err
		}
		twinOpts = append(twinOpts, sim.WithStore(twinStore))
	}
	r.twin = sim.NewSession(twinOpts...)
	r.eng = experiments.NewEngine(1)
	r.probe = store.Open(probeStore, store.DefaultCodecs()...)
	r.arena = multiscalar.NewSimulator()

	if err := r.prepare(ctx); err != nil {
		return nil, err
	}
	untraced, p99, err := r.untracedPass(ctx)
	if err != nil {
		return nil, err
	}
	// The calls on the workload's path run back to back, as in the
	// workload; the direct layer calls, which allocate heavily, follow in a
	// second pass so they do not disturb the first.
	r.tr.t0 = time.Now()
	results := make([]*sim.Result, len(r.reqs))
	for i := range r.reqs {
		r.out.attempted++
		if results[i], err = r.pathCalls(ctx, i); err != nil {
			r.out.fail(1, "traced request %d: %v", i, err)
		}
	}
	for i, res := range results {
		if res == nil {
			continue
		}
		if err := r.layerCalls(ctx, i, res); err != nil {
			r.out.fail(1, "traced request %d: %v", i, err)
		}
	}
	if err := writeSpans(e.spans, fmt.Sprintf("%s-seed%d.jsonl", e.workload, e.seed), r.tr.spans); err != nil {
		return nil, err
	}

	// The session on the workload's path and its store.
	storeDir := srvStore
	var st statz
	if r.inProcess {
		ts := r.twin.Stats()
		st.Stats.Executed, st.Stats.Hits, st.Stats.CachedJobs = ts.Executed, ts.Hits, ts.CachedJobs
		c := r.probe.Counters()
		st.Stats.Store = &statzStore{}
		st.Stats.Store.Counters.Writes, st.Stats.Store.Counters.WriteErrors = c.Writes, c.WriteErrors
		storeDir = probeStore
	} else if st, err = readStatz(ctx, r.srv.url); err != nil {
		return nil, err
	}
	r.setMetrics(st, dirBytes(storeDir), untraced, p99)
	return r.out, nil
}

// fleet is a coordinator with one worker, on the same host.
type fleet struct {
	coord, worker *server
}

func (f *fleet) stop() {
	f.worker.stop()
	f.coord.stop()
}

// startFleet starts a coordinator and one worker with a store and one
// engine worker, and waits until the worker is in the routing ring.
func startFleet(ctx context.Context, e env, store string) (*fleet, error) {
	coord, err := startServer(ctx, e.server, "-role", "coordinator")
	if err != nil {
		return nil, err
	}
	worker, err := startServer(ctx, e.server,
		"-role", "worker", "-coordinator", coord.url, "-name", "w1", "-jobs", "1", "-store", store)
	if err != nil {
		coord.stop()
		return nil, err
	}
	f := &fleet{coord: coord, worker: worker}
	if err := waitReady(ctx, coord, fleetReady(1)); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// distinctBenches returns the benchmarks of a request list, once each.
func distinctBenches(reqs []sim.Request) []string {
	seen := map[string]bool{}
	var out []string
	for _, req := range reqs {
		if req.Bench != "" && !seen[req.Bench] {
			seen[req.Bench] = true
			out = append(out, req.Bench)
		}
	}
	return out
}

// prepare puts every layer into the workload's cache state: cold-requests
// starts from nothing; paper-sweep has its work items preprocessed in
// process; warm-hits sees each request computed everywhere.  The servers
// off a warm path are warm too.
func (r *tracedRun) prepare(ctx context.Context) error {
	if r.cold {
		return nil
	}
	for _, url := range []string{r.srv.url, r.fl.coord.url} {
		if _, ss, _ := sendAll(ctx, r.client, url+"/v1/simulate", 1, r.bodies); countFailed(ss) > 0 {
			return fmt.Errorf("warming %s failed", url)
		}
	}
	if r.inProcess {
		for _, b := range distinctBenches(r.reqs) {
			if _, err := r.twin.Prepare(ctx, sim.Request{Bench: b}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, in := range r.ins {
		if _, err := r.eng.Do(ctx, in.job); err != nil {
			return err
		}
		if _, err := r.twin.Run(ctx, in.req); err != nil {
			return err
		}
	}
	return nil
}

// untracedPass times the workload's own call without tracing: the mean
// end-to-end time the traced pass is compared with, and the HTTP tail.
func (r *tracedRun) untracedPass(ctx context.Context) (float64, float64, error) {
	var e2e []float64
	switch {
	case r.inProcess:
		fresh := sim.NewSession(sim.WithWorkers(1))
		for _, b := range distinctBenches(r.reqs) {
			if _, err := fresh.Prepare(ctx, sim.Request{Bench: b}); err != nil {
				return 0, 0, err
			}
		}
		for _, req := range r.reqs {
			t := time.Now()
			if _, err := fresh.Run(ctx, req); err != nil {
				return 0, 0, err
			}
			e2e = append(e2e, float64(time.Since(t).Nanoseconds())/1e6)
		}
	case r.cold:
		// The same cold requests on a second fresh server.
		dir, err := freshDir(r.e, "store")
		if err != nil {
			return 0, 0, err
		}
		fresh, err := startServer(ctx, r.e.server, "-jobs", "1", "-store", dir)
		if err != nil {
			return 0, 0, err
		}
		_, ss, _ := sendAll(ctx, r.client, fresh.url+"/v1/simulate", 1, r.bodies)
		fresh.stop()
		if n := countFailed(ss); n > 0 {
			return 0, 0, fmt.Errorf("%d untraced cold requests failed", n)
		}
		for _, s := range ss {
			e2e = append(e2e, s.ms)
		}
		lat := sortedCopy(e2e)
		p99, _ := tailPercentile(lat, 0.99, 0)
		return mean(e2e), p99, nil
	}

	// Warm round trips to the standalone server (off paper-sweep's path).
	var lat []float64
	for k := 0; k < untracedHotOps; k++ {
		i := clientOrder(r.e.seed, 0, k/len(r.reqs), len(r.reqs))[k%len(r.reqs)]
		t := time.Now()
		status, _, err := post(ctx, r.client, r.srv.url+"/v1/simulate", r.bodies[i])
		if err != nil || status != http.StatusOK {
			return 0, 0, fmt.Errorf("untraced request: status %d: %v", status, err)
		}
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e6)
	}
	if !r.inProcess {
		e2e = lat
	}
	p99, _ := tailPercentile(sortedCopy(lat), 0.99, 10)
	return mean(e2e), p99, nil
}

// postSpan sends request i to url as a span and checks the reply status.
func (r *tracedRun) postSpan(ctx context.Context, name string, i, parent int, url string) ([]byte, error) {
	var body []byte
	_, err := r.tr.timed(name, i, parent, func() error {
		status, b, err := post(ctx, r.client, url+"/v1/simulate", r.bodies[i])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", name, status, truncate(b))
		}
		body = b
		return err
	})
	return body, err
}

// pathCalls traces request i's end-to-end call, the facade on the same
// request, and the HTTP, fleet and engine calls beside it.  Any disagreement
// between them fails the request.
func (r *tracedRun) pathCalls(ctx context.Context, i int) (*sim.Result, error) {
	tr, in := r.tr, r.ins[i]
	root := tr.open("request", i, 0)
	defer tr.close(root)
	// Where the facade computes, start from a collected heap so it does not
	// pay for the benchmark's own garbage.  Warm requests make too little
	// garbage to matter, and a collection's background sweep would compete
	// with the server for the CPUs.
	if r.cold || r.inProcess {
		tr.timed("gc", i, root, func() error { runtime.GC(); return nil })
	}

	// The end-to-end call, and the facade on the same request.
	var body []byte
	if !r.inProcess {
		var err error
		if body, err = r.postSpan(ctx, "http", i, root, r.srv.url); err != nil {
			return nil, err
		}
	}
	var res *sim.Result
	if _, err := tr.timed("facade", i, root, func() error {
		var err error
		res, err = r.twin.Run(ctx, in.req)
		return err
	}); err != nil {
		return nil, err
	}
	var enc []byte
	id, err := tr.timed("encode", i, root, func() error {
		var err error
		enc, err = encodeResult(res)
		return err
	})
	if err != nil {
		return nil, err
	}
	tr.attr(id, "bytes", int64(len(enc)))
	if body != nil && !bytes.Equal(body, enc) {
		return nil, fmt.Errorf("reply differs from the facade's encoding")
	}

	// The facade's own work, measured apart from the path's call: a memo
	// hit of the same request.
	var fhit *sim.Result
	if _, err := tr.timed("facade.hit", i, root, func() error {
		var err error
		fhit, err = r.twin.Run(ctx, in.req)
		return err
	}); err != nil {
		return nil, err
	}
	if fhit.Cycles != res.Cycles {
		return nil, fmt.Errorf("facade memo hit differs from the facade's run")
	}

	// Off paper-sweep's path: a warm round trip against the facade hit.
	if r.inProcess {
		b, err := r.postSpan(ctx, "http", i, root, r.srv.url)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, enc) {
			return nil, fmt.Errorf("reply differs from the facade's encoding")
		}
	}

	// The fleet on a warm worker: routed and direct, alternating which goes
	// first so neither always follows the other.
	if r.cold {
		if _, err := r.postSpan(ctx, "warmup.fleet", i, root, r.fl.coord.url); err != nil {
			return nil, err
		}
	}
	calls := []struct{ name, url string }{{"fleet.routed", r.fl.coord.url}, {"fleet.direct", r.fl.worker.url}}
	if i%2 == 1 {
		calls[0], calls[1] = calls[1], calls[0]
	}
	for _, c := range calls {
		b, err := r.postSpan(ctx, c.name, i, root, c.url)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, enc) {
			return nil, fmt.Errorf("%s reply differs from the facade's encoding", c.name)
		}
	}

	// The engine's in-process memo hit on the same simulation job.
	eng := r.eng
	if r.cold || r.inProcess {
		// A throwaway engine computes the job, so the benchmark's heap does
		// not grow by every cold request.
		eng = experiments.NewEngine(1)
		if _, err := tr.timed("warmup.engine", i, root, func() error {
			_, err := eng.Do(ctx, in.job)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var hit any
	if _, err := tr.timed("engine.hit", i, root, func() error {
		var err error
		hit, err = eng.Do(ctx, in.job)
		return err
	}); err != nil {
		return nil, err
	}
	if hr, ok := hit.(multiscalar.Result); !ok || hr.Cycles != res.Cycles {
		return nil, fmt.Errorf("engine result differs from the facade's")
	}

	return res, nil
}

// layerCalls traces build, trace, preprocess, simulate and the store,
// called directly on request i's input, and checks them against the
// facade's result res.
func (r *tracedRun) layerCalls(ctx context.Context, i int, res *sim.Result) error {
	tr, in := r.tr, r.ins[i]
	root := tr.open("layers", i, 0)
	defer tr.close(root)

	// Build, trace, preprocess and simulate, called directly.
	var prog *program.Program
	if _, err := tr.timed("build", i, root, func() error {
		var err error
		prog, err = in.buildProgram()
		return err
	}); err != nil {
		return err
	}
	var ts trace.Stats
	id, err := tr.timed("trace", i, root, func() error {
		var err error
		ts, err = trace.Run(prog, in.trace, nil)
		return err
	})
	if err != nil {
		return err
	}
	tr.attr(id, "instructions", int64(ts.Instructions))
	var item *multiscalar.WorkItem
	id, err = tr.timedAllocs("preprocess", i, root, func() error {
		var err error
		item, err = multiscalar.Preprocess(prog, in.trace)
		return err
	})
	if err != nil {
		return err
	}
	tr.attr(id, "instructions", int64(ts.Instructions))
	var sr multiscalar.Result
	id, err = tr.timedAllocs("simulate", i, root, func() error {
		var err error
		sr, err = r.arena.Simulate(ctx, item, in.cfg)
		return err
	})
	if err != nil {
		return err
	}
	tr.attr(id, "instructions", int64(sr.Instructions))
	tr.attr(id, "cycles", sr.Cycles)
	tr.attr(id, "misspeculations", int64(sr.Misspeculations))
	tr.attr(id, "squashed", int64(sr.SquashedInstructions))
	if sr.Cycles != res.Cycles || sr.Instructions != res.Instructions {
		return fmt.Errorf("direct simulation (%d cycles) differs from the facade (%d cycles)", sr.Cycles, res.Cycles)
	}

	// The store: save and load each persisted kind.
	for _, obj := range []struct {
		kind, key string
		v         any
	}{
		{synth.BuildKind, in.build.CacheKey(), prog},
		{multiscalar.PreprocessKind, in.job.Item.CacheKey(), item},
		{multiscalar.SimulateKind, in.job.CacheKey(), sr},
	} {
		tr.timed("store.save."+obj.kind, i, root, func() error { r.probe.Save(obj.kind, obj.key, obj.v); return nil })
		var ok bool
		tr.timed("store.load."+obj.kind, i, root, func() error { _, ok = r.probe.Load(obj.kind, obj.key); return nil })
		if !ok {
			return fmt.Errorf("store: %s object did not load back", obj.kind)
		}
	}
	return nil
}

// spanStats aggregates the traced pass's spans by name.
type spanStats struct {
	ms    map[string][]float64          // durations by name, in ms
	attrs map[string]map[string]float64 // attribute sums by span name
	glue  []float64                     // path root self times, in ms
}

func aggregate(spans []span) spanStats {
	st := spanStats{ms: map[string][]float64{}, attrs: map[string]map[string]float64{}}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			if s.Name == "request" {
				st.glue = append(st.glue, float64(selfTime(s, children[s.ID]))/1e6)
			}
			continue
		}
		st.ms[s.Name] = append(st.ms[s.Name], float64(s.dur())/1e6)
		if st.attrs[s.Name] == nil {
			st.attrs[s.Name] = map[string]float64{}
		}
		for k, v := range s.Attrs {
			st.attrs[s.Name][k] += float64(v)
		}
	}
	return st
}

// mean returns the mean duration of the named spans, in ms.
func (st spanStats) mean(name string) float64 { return mean(st.ms[name]) }

// perCall returns an attribute's mean per call of the named span.
func (st spanStats) perCall(name, attr string) float64 {
	return st.attrs[name][attr] / float64(max(len(st.ms[name]), 1))
}

// nsPerInstr returns the named span's total time per instruction.
func (st spanStats) nsPerInstr(name string) float64 {
	total := 0.0
	for _, d := range st.ms[name] {
		total += d * 1e6
	}
	return total / max(st.attrs[name]["instructions"], 1)
}

// setMetrics derives the per-layer metrics from the spans, the path
// session's counters and store, and the untraced pass.
func (r *tracedRun) setMetrics(st statz, storeBytes int64, untracedMS, p99 float64) {
	out, sp := r.out, aggregate(r.tr.spans)
	n := float64(len(r.reqs))
	F, H, S := sp.mean("facade"), sp.mean("http"), sp.mean("simulate")
	B, T, P, E := sp.mean("build"), sp.mean("trace"), sp.mean("preprocess"), sp.mean("engine.hit")
	R, D := sp.mean("fleet.routed"), sp.mean("fleet.direct")

	out.set("build.ms_per_call", B, "ms")
	out.set("trace.ns_per_instr", sp.nsPerInstr("trace"), "ns")
	out.set("preprocess.ms_per_call", P, "ms")
	out.set("preprocess.self_ms_per_call", P-T, "ms")
	out.set("preprocess.ns_per_instr", sp.nsPerInstr("preprocess"), "ns")
	out.set("preprocess.alloc_mb_per_call", sp.perCall("preprocess", "alloc_bytes")/(1<<20), "MB")
	out.set("preprocess.allocs_per_call", sp.perCall("preprocess", "allocs"), "count")

	sa := sp.attrs["simulate"]
	out.set("simulate.ms_per_call", S, "ms")
	out.set("simulate.ns_per_instr", sp.nsPerInstr("simulate"), "ns")
	out.set("simulate.allocs_per_call", sp.perCall("simulate", "allocs"), "count")
	out.set("simulate.instructions", sa["instructions"], "count")
	out.set("simulate.cycles", sa["cycles"], "count")
	out.set("simulate.misspeculations", sa["misspeculations"], "count")
	out.set("simulate.useful_ratio", sa["instructions"]/max(sa["instructions"]+sa["squashed"], 1), "ratio")

	ex, hits := float64(st.Stats.Executed), float64(st.Stats.Hits)
	out.set("engine.executed", ex, "count")
	out.set("engine.hits", hits, "count")
	out.set("engine.hit_ratio", hits/max(hits+ex, 1), "ratio")
	out.set("engine.cached_jobs", float64(st.Stats.CachedJobs), "count")
	out.set("engine.hit_us", E*1e3, "us")

	for _, kind := range []string{synth.BuildKind, multiscalar.PreprocessKind, multiscalar.SimulateKind} {
		flat := flatKind(kind)
		out.set("store.save_ms."+flat, sp.mean("store.save."+kind), "ms")
		out.set("store.load_ms."+flat, sp.mean("store.load."+kind), "ms")
	}
	out.set("store.bytes_per_request", float64(storeBytes)/n, "bytes")
	if st.Stats.Store != nil {
		out.set("store.writes", float64(st.Stats.Store.Counters.Writes), "count")
		out.set("store.write_errors", float64(st.Stats.Store.Counters.WriteErrors), "count")
	}

	// The layers on the workload's path account for its end-to-end call
	// with times measured apart from it (see the top of this file); the
	// residual is unattributed.
	Fh := sp.mean("facade.hit")
	facadeSelf, httpSelf := Fh-E, H-F
	var saves float64
	for _, kind := range []string{synth.BuildKind, multiscalar.PreprocessKind, multiscalar.SimulateKind} {
		saves += sp.mean("store.save." + kind)
	}
	type term struct {
		name string
		ms   float64
	}
	var e2e float64
	var chain []term
	switch {
	case r.inProcess:
		e2e, httpSelf = F, H-Fh
		chain = []term{{"facade.self_ms", facadeSelf}, {"engine.hit_ms", E}, {"simulate.ms_per_call", S}}
	case r.cold:
		e2e = H
		chain = []term{{"http.self_ms", httpSelf}, {"facade.self_ms", facadeSelf}, {"engine.hit_ms", E},
			{"build.ms_per_call", B}, {"trace.ms", T}, {"preprocess.self_ms_per_call", P - T},
			{"simulate.ms_per_call", S}, {"store.save_ms", saves}}
	default:
		e2e = H
		chain = []term{{"http.self_ms", httpSelf}, {"facade.self_ms", facadeSelf}, {"engine.hit_ms", E}}
	}
	unattributed := e2e
	var b []byte
	for _, t := range chain {
		unattributed -= t.ms
		b = fmt.Appendf(b, "%s %.4f + ", t.name, t.ms)
		if t.ms < 0 {
			logf("warning: %s traced: %s is negative (%.4f ms): the spans it is the difference of drifted apart", r.e.workload, t.name, t.ms)
		}
	}
	out.set("facade.run_ms", F, "ms")
	out.set("facade.self_ms", facadeSelf, "ms")
	out.set("http.self_ms", httpSelf, "ms")
	out.set("http.encode_us", sp.mean("encode")*1e3, "us")
	out.set("http.response_bytes", sp.perCall("encode", "bytes"), "bytes")
	out.set("http.latency_p99_ms", p99, "ms")
	out.set("fleet.proxy_ms", R-D, "ms")
	out.set("unattributed_ms", unattributed, "ms")
	out.set("tracing_overhead_pct", 100*(e2e-untracedMS)/untracedMS, "%")

	// Log the partition so the sum can be checked by eye.
	logf("%s traced: %d requests; end-to-end %.4f ms (untraced %.4f ms) = %sunattributed %.4f; benchmark glue between calls %.4f ms, in no metric%s",
		r.e.workload, len(r.reqs), e2e, untracedMS, b, unattributed, mean(sp.glue), describe(out.metrics))
}

// flatKind renders a job kind as a metric-name component.
func flatKind(kind string) string {
	out := []byte(kind)
	for i, c := range out {
		if c == '/' {
			out[i] = '-'
		}
	}
	return string(out)
}
