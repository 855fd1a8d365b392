package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"memdep/sim"
)

// The sizes of the HTTP workloads.
const (
	// hotSetSize is the number of distinct requests the warm workloads
	// repeat: one of each combination of the synthetic request space.
	hotSetSize = 36
	// coldWarmup is the number of distinct requests each cold-requests setup
	// sends before the measured set: a bare server start (milliseconds) is
	// too short to time steadily.
	coldWarmup = 36
	// coldClients is the number of cold-requests callers.  Two callers
	// share the two CPUs with the server's collector and the benchmark, and
	// their latency then depends on how requests overlap: over ten runs its
	// spread was up to 0.25, against at most 0.15 for CPU time per request.
	// One caller's latency follows the CPU time.
	coldClients = 1
	// coldRequests is the measured set of cold-requests, four blocks of the
	// request space.  The server's memo cache keeps every distinct request
	// (about 8 MB each, ROADMAP item 10), so the set is sized to fit memory.
	coldRequests = 4 * 36
	// window is the stretch of a warm measured phase each throughput
	// median is over.
	window = time.Second
	// tailBeyond is how many samples must lie beyond p90 for it to be
	// resolved; below that the run logs it as short of the rule.
	tailBeyond = 100
	// setups is how many times each HTTP workload sets up; setup_s is the
	// median and the last setup serves the measured phase.
	setups = 3
)

// encodeRequests renders requests as the JSON bodies the server receives.
func encodeRequests(reqs []sim.Request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		data, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// sample is one completed operation of a closed loop: its latency, whether
// its reply was correct, when it completed (since the loop started) and the
// committed instructions its reply reports.
type sample struct {
	ms    float64
	ok    bool
	end   time.Duration
	instr uint64
}

// closedLoop runs clients concurrent callers; each sends its next request
// (next returns the payload index, or false to stop) only after the reply
// to its previous one.  send reports whether the reply was correct and the
// committed instructions it carries.
func closedLoop(clients int, next func(client, k int) (int, bool), send func(idx int) (bool, uint64)) ([]sample, time.Duration) {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				idx, more := next(c, k)
				if !more {
					return
				}
				t := time.Now()
				ok, instr := send(idx)
				d := time.Since(t)
				per[c] = append(per[c], sample{ms: float64(d.Nanoseconds()) / 1e6, ok: ok, end: t.Add(d).Sub(start), instr: instr})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// sendAll posts every payload once, spread over clients callers, and
// returns the replies by index.
func sendAll(ctx context.Context, c *http.Client, url string, clients int, payloads [][]byte) ([][]byte, []sample, time.Duration) {
	bodies := make([][]byte, len(payloads))
	var nextIdx atomic.Int64
	samples, elapsed := closedLoop(clients,
		func(int, int) (int, bool) {
			i := int(nextIdx.Add(1) - 1)
			return i, i < len(payloads)
		},
		func(i int) (bool, uint64) {
			status, body, err := post(ctx, c, url, payloads[i])
			if err != nil || status != http.StatusOK {
				logf("POST %s #%d: status %d: %v %s", url, i, status, err, truncate(body))
				return false, 0
			}
			instr, err := instructionsOf(body)
			if err != nil {
				logf("POST %s #%d: undecodable reply: %v", url, i, err)
				return false, 0
			}
			bodies[i] = body
			return true, instr
		})
	return bodies, samples, elapsed
}

// truncate shortens a body for the log.
func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// countFailed returns the number of failed samples.
func countFailed(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

// instructionsOf reads the committed instruction count of a result body.
func instructionsOf(body []byte) (uint64, error) {
	var v struct {
		Instructions uint64 `json:"instructions"`
	}
	err := json.Unmarshal(body, &v)
	return v.Instructions, err
}

// usageDelta is the program's CPU time and summed peak RSS over a phase.
type usageDelta struct {
	cpu   time.Duration
	hwmMB float64
}

// measureUsage samples every program process before and after phase.
func measureUsage(procs []*server, phase func()) (usageDelta, error) {
	before := make([]procUsage, len(procs))
	for i, p := range procs {
		u, err := p.usage()
		if err != nil {
			return usageDelta{}, err
		}
		before[i] = u
	}
	phase()
	var d usageDelta
	for i, p := range procs {
		u, err := p.usage()
		if err != nil {
			return usageDelta{}, err
		}
		d.cpu += time.Duration(u.cpuTicks-before[i].cpuTicks) * time.Second / clockTicks
		d.hwmMB += float64(u.hwmKB) / 1024
	}
	return d, nil
}

// stretch is one part of a measured phase: the operations that completed
// in it and its length.
type stretch struct {
	ss     []sample
	length time.Duration
}

// windows cuts a measured phase of the given length into whole windows of
// w by completion time; operations completing after the last whole window
// are left out.
func windows(ss []sample, elapsed, w time.Duration) []stretch {
	out := make([]stretch, int(elapsed/w))
	for i := range out {
		out[i].length = w
	}
	for _, s := range ss {
		if i := int(s.end / w); i < len(out) {
			out[i].ss = append(out[i].ss, s)
		}
	}
	return out
}

// setLoadMetrics records the end-to-end metrics of an HTTP measured phase
// made of the given stretches.  Throughput is the median over the
// stretches, so with several a disturbance from outside that lasts one
// stretch moves one value, not the result.  Latency percentiles pool every
// operation; a failed operation counts as missing every latency limit.
// p90 is logged as unresolved when fewer than tailBeyond samples lie
// beyond it.
func setLoadMetrics(out *outcome, parts []stretch, u usageDelta) {
	var lat, rates, minstr []float64
	ok := 0
	for _, p := range parts {
		var pok int
		var instr uint64
		for _, s := range p.ss {
			if s.ok {
				pok++
				instr += s.instr
				lat = append(lat, s.ms)
			} else {
				lat = append(lat, math.Inf(1))
			}
		}
		ok += pok
		rates = append(rates, float64(pok)/p.length.Seconds())
		minstr = append(minstr, float64(instr)/p.length.Seconds()/1e6)
	}
	lat = sortedCopy(lat)
	p50, _ := tailPercentile(lat, 0.50, 0)
	p90, resolved := tailPercentile(lat, 0.90, tailBeyond)
	out.set("results_per_s", median(rates), "results/s")
	out.set("sim_minstr_per_s", median(minstr), "Minstr/s")
	out.set("latency_p50_ms", p50, "ms")
	out.set("latency_p90_ms", p90, "ms")
	out.set("cpu_ms_per_op", float64(u.cpu.Nanoseconds())/1e6/float64(max(ok, 1)), "ms")
	out.set("peak_rss_mb", u.hwmMB, "MB")
	logf("%d operations in %d stretches; results/s per stretch: %.1f", len(lat), len(parts), rates)
	if !resolved {
		logf("latency_p90_ms has fewer than %d of %d samples beyond it", tailBeyond, len(lat))
	}
}

// runColdRequests: a standalone server with a fresh store; one caller
// sends never-seen synthetic specs, so every request pays build,
// preprocess, simulate, the store's write-behind and encode.
func runColdRequests(ctx context.Context, e env) (*outcome, error) {
	out := newOutcome()
	client := newClient(coldClients)
	warm, err := encodeRequests(synthRequests(e.seed, nsWarmup, coldWarmup))
	if err != nil {
		return nil, err
	}
	reqs := synthRequests(e.seed, nsMeasured, coldRequests)
	payloads, err := encodeRequests(reqs)
	if err != nil {
		return nil, err
	}
	var srv *server
	var setup []float64
	for range setups {
		if srv != nil {
			srv.stop()
		}
		dir, err := freshDir(e, "store")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv, err = startServer(ctx, e.server, "-store", dir)
		if err != nil {
			return nil, err
		}
		_, ws, _ := sendAll(ctx, client, srv.url+"/v1/simulate", coldClients, warm)
		setup = append(setup, time.Since(t0).Seconds())
		if n := countFailed(ws); n > 0 {
			srv.stop()
			return nil, fmt.Errorf("%d warm-up requests failed", n)
		}
	}
	defer srv.stop()

	// The measured requests go out in bursts of one block each, spread
	// evenly over the measured time: the host's speed drifts over seconds,
	// and one short burst would catch a single moment of it.  The bursts
	// form one stretch as long as their busy time, so throughput counts
	// every burst: the garbage collections of the growing cache land in
	// some bursts and not others, and they are part of the cold cost.
	bodies := make([][]byte, len(payloads))
	var all stretch
	start := time.Now()
	u, err := measureUsage([]*server{srv}, func() {
		for b := 0; b*synthCombos < len(payloads); b++ {
			lo, hi := b*synthCombos, min((b+1)*synthCombos, len(payloads))
			time.Sleep(time.Until(start.Add(e.seconds * time.Duration(lo) / time.Duration(len(payloads)))))
			got, ss, elapsed := sendAll(ctx, client, srv.url+"/v1/simulate", coldClients, payloads[lo:hi])
			copy(bodies[lo:], got)
			all.ss = append(all.ss, ss...)
			all.length += elapsed
			logf("burst %d: %.1f results/s", b+1, float64(len(ss))/elapsed.Seconds())
		}
	})
	if err != nil {
		return nil, err
	}
	srv.stop()
	out.attempted = len(all.ss)
	if n := countFailed(all.ss); n > 0 {
		out.fail(n, "%d cold requests failed", n)
	}
	setLoadMetrics(out, []stretch{all}, u)
	out.set("setup_s", median(setup), "s")

	// Outside the timed phase, and with the server gone, recompute a fixed
	// sample in process: each reply must equal the facade's own encoding.
	var idx []int
	for i := 0; i < len(reqs); i += 5 {
		idx = append(idx, i)
	}
	mismatches, err := checkAgainstFacade(ctx, e.nproc, reqs, bodies, idx)
	if err != nil {
		return nil, err
	}
	if mismatches > 0 {
		out.fail(mismatches, "%d of %d sampled cold replies differ from the in-process facade", mismatches, len(idx))
	}
	logf("cold-requests: %d requests in bursts of %d, %d clients, %d checked in process%s",
		len(reqs), synthCombos, coldClients, len(idx), describe(out.metrics))
	return out, nil
}

// encodeResult renders a result exactly as the server does.
func encodeResult(r *sim.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(r)
	return buf.Bytes(), err
}

// checkAgainstFacade runs reqs[idx] through a fresh in-process session and
// counts the replies that differ from its encoding.  Requests that got no
// reply are skipped: they already count as failed.
func checkAgainstFacade(ctx context.Context, workers int, reqs []sim.Request, bodies [][]byte, idx []int) (int, error) {
	sample := make([]sim.Request, len(idx))
	for i, j := range idx {
		sample[i] = reqs[j]
	}
	results, err := sim.NewSession(sim.WithWorkers(workers)).RunGrid(ctx, sample)
	if err != nil {
		return 0, err
	}
	bad := 0
	for i, j := range idx {
		want, err := encodeResult(results[i])
		if err != nil {
			return 0, err
		}
		if bodies[j] != nil && !bytes.Equal(bodies[j], want) {
			bad++
		}
	}
	return bad, nil
}

// hotSet is a warm workload's repeated requests with their reference
// replies and committed instruction counts.
type hotSet struct {
	payloads [][]byte
	refs     [][]byte
	instr    []uint64
}

// computeHotSet sends the hot set once through url and keeps the replies.
func computeHotSet(ctx context.Context, c *http.Client, url string, clients int, payloads [][]byte) (hotSet, error) {
	refs, ss, _ := sendAll(ctx, c, url, clients, payloads)
	if n := countFailed(ss); n > 0 {
		return hotSet{}, fmt.Errorf("%d hot-set requests failed", n)
	}
	h := hotSet{payloads: payloads, refs: refs, instr: make([]uint64, len(refs))}
	for i, b := range refs {
		n, err := instructionsOf(b)
		if err != nil {
			return hotSet{}, err
		}
		h.instr[i] = n
	}
	return h, nil
}

// repeatHotSet is the measured phase of the warm workloads: each caller
// walks the hot set in its own seed-shuffled order, pass after pass, until
// the measured time is spent; every reply must be byte-identical to want.
func repeatHotSet(ctx context.Context, e env, c *http.Client, url string, h hotSet, want [][]byte) ([]sample, time.Duration) {
	n := len(h.payloads)
	orders := make([][]int, e.nproc)
	deadline := time.Now().Add(e.seconds)
	return closedLoop(e.nproc,
		func(client, k int) (int, bool) {
			if time.Now().After(deadline) {
				return 0, false
			}
			if k%n == 0 {
				orders[client] = clientOrder(e.seed, client, k/n, n)
			}
			return orders[client][k%n], true
		},
		func(i int) (bool, uint64) {
			status, body, err := post(ctx, c, url, h.payloads[i])
			if err != nil || status != http.StatusOK || !bytes.Equal(body, want[i]) {
				logf("hot request %d: status %d: %v", i, status, err)
				return false, 0
			}
			return true, h.instr[i]
		})
}

// runWarmHits: a standalone server with a store; two callers repeat a hot
// set of 32 requests, so every reply is a memo-cache hit and the time goes
// to HTTP, validation, the engine lookup, the facade and JSON encode.
func runWarmHits(ctx context.Context, e env) (*outcome, error) {
	out := newOutcome()
	client := newClient(e.nproc)
	payloads, err := encodeRequests(synthRequests(e.seed, nsHot, hotSetSize))
	if err != nil {
		return nil, err
	}
	var srv *server
	var h hotSet
	var setup []float64
	for range setups {
		if srv != nil {
			srv.stop()
		}
		dir, err := freshDir(e, "store")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv, err = startServer(ctx, e.server, "-store", dir)
		if err != nil {
			return nil, err
		}
		next, err := computeHotSet(ctx, client, srv.url+"/v1/simulate", e.nproc, payloads)
		setup = append(setup, time.Since(t0).Seconds())
		if err != nil {
			srv.stop()
			return nil, err
		}
		if h.refs != nil && !equalBodies(h.refs, next.refs) {
			out.fail(1, "hot-set replies differ between setups")
		}
		h = next
	}
	defer srv.stop()

	before, err := readStatz(ctx, srv.url)
	if err != nil {
		return nil, err
	}
	var ss []sample
	var elapsed time.Duration
	u, err := measureUsage([]*server{srv}, func() {
		ss, elapsed = repeatHotSet(ctx, e, client, srv.url+"/v1/simulate", h, h.refs)
	})
	if err != nil {
		return nil, err
	}
	after, err := readStatz(ctx, srv.url)
	if err != nil {
		return nil, err
	}
	out.attempted += len(ss)
	if n := countFailed(ss); n > 0 {
		out.fail(n, "%d hot replies failed or differ from their setup replies", n)
	}
	if d := after.Stats.Executed - before.Stats.Executed; d > 0 {
		out.fail(int(min(d, uint64(len(ss)))), "%d jobs executed during the measured phase: not every reply was a memo hit", d)
	}
	setLoadMetrics(out, windows(ss, elapsed, window), u)
	out.set("setup_s", median(setup), "s")
	logf("warm-hits: %d requests over a hot set of %d, %d clients%s", len(ss), hotSetSize, e.nproc, describe(out.metrics))
	return out, nil
}

// equalBodies reports whether two reply sets are byte-identical.
func equalBodies(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
