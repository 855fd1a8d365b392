package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	"memdep/sim"
)

// sweepDigest maps each paper-grid cell to the digest of its result, as
// computed by the tree the benchmark was written against.  A change that
// only makes the simulator faster must leave every digest unchanged.
//
//go:embed testdata/paper_sweep_digest.json
var sweepDigest []byte

// cellKey names a grid cell in the digest.
func cellKey(r sim.Request) string { return fmt.Sprintf("%s/%d/%s", r.Bench, r.Stages, r.Policy) }

// resultDigest hashes a result's full JSON encoding: every modelled
// statistic, counter and annotated pair.
func resultDigest(r *sim.Result) (string, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12]), nil
}

// repetition is what one paper-sweep process reports to its parent.
type repetition struct {
	GridNS       int64  `json:"grid_ns"`
	Cells        int    `json:"cells"`
	Failed       int    `json:"failed"`
	Instructions uint64 `json:"instructions"`
	CPUNS        int64  `json:"cpu_ns"`
	HWMKB        int64  `json:"hwm_kb"`
}

// cpuNow returns this process's user plus system CPU time.
func cpuNow() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// prepareSuite opens a fresh session and preprocesses every suite benchmark
// at its default scale: the build, trace and preprocess layers.
func prepareSuite(ctx context.Context, workers int) (*sim.Session, error) {
	s := sim.NewSession(sim.WithWorkers(workers))
	for _, b := range sim.Benchmarks() {
		if _, err := s.Prepare(ctx, sim.Request{Bench: b.Name}); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", b.Name, err)
		}
	}
	return s, nil
}

// sweepRepetition is one paper-sweep repetition, run in a fresh process:
// set up, say "ready", run the grid once, check it and report.
func sweepRepetition(ctx context.Context, seed uint64, stdout io.Writer) error {
	var want map[string]string
	if err := json.Unmarshal(sweepDigest, &want); err != nil {
		return fmt.Errorf("digest: %w", err)
	}
	s, err := prepareSuite(ctx, runtime.NumCPU())
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(stdout, "ready"); err != nil {
		return err
	}
	cells := paperCells(seed)
	cpu0, err := cpuNow()
	if err != nil {
		return err
	}
	start := time.Now()
	results, err := s.RunGrid(ctx, cells)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	cpu1, err := cpuNow()
	if err != nil {
		return err
	}
	rep := repetition{GridNS: elapsed.Nanoseconds(), Cells: len(cells), CPUNS: (cpu1 - cpu0).Nanoseconds()}
	for i, r := range results {
		rep.Instructions += r.Instructions
		d, err := resultDigest(r)
		if err != nil || d != want[cellKey(cells[i])] {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: cell %s: digest %s, want %s\n", cellKey(cells[i]), d, want[cellKey(cells[i])])
		}
	}
	u, err := readProcUsage(os.Getpid())
	if err != nil {
		return err
	}
	rep.HWMKB = u.hwmKB
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// writeSweepDigest recomputes every cell of the paper grid and writes the
// digest file the repetitions check against.
func writeSweepDigest(ctx context.Context, path string) error {
	s, err := prepareSuite(ctx, runtime.NumCPU())
	if err != nil {
		return err
	}
	cells := paperCells(0)
	results, err := s.RunGrid(ctx, cells)
	if err != nil {
		return err
	}
	digest := make(map[string]string, len(cells))
	for i, r := range results {
		if digest[cellKey(cells[i])], err = resultDigest(r); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(digest, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// repetitionBudget is the time one paper-sweep repetition is planned to
// take, process start and set-up included, on two CPUs.  --seconds over it
// fixes the number of repetitions, so that count, and the order statistic
// latency_p90_ms picks, do not depend on how fast the code under test is.
const repetitionBudget = 3750 * time.Millisecond

// sweepRepetitions is the number of paper-sweep repetitions a run of the
// given length makes: at least three.
func sweepRepetitions(seconds time.Duration) int { return max(3, int(seconds/repetitionBudget)) }

// runPaperSweep runs a fixed number of paper-sweep repetitions, each in a
// fresh process, and reports their medians.  Repeating the grid inside one
// process varied more in pilot runs (5.2 to 7.1 s at one worker), so every
// repetition pays its own process start and set-up, which is also what
// setup_s times.
func runPaperSweep(ctx context.Context, e env) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var setup, gridMS, rate, minstr, cpuMS, rssMB []float64
	for range sweepRepetitions(e.seconds) {
		rep, ready, err := runRepetition(ctx, self, e.seed)
		if err != nil {
			return nil, fmt.Errorf("paper-sweep repetition %d: %w", len(setup)+1, err)
		}
		out.attempted += rep.Cells
		if rep.Failed > 0 {
			out.fail(rep.Failed, "%d paper-grid cells differ from the committed digest", rep.Failed)
		}
		grid := time.Duration(rep.GridNS)
		setup = append(setup, ready.Seconds())
		gridMS = append(gridMS, float64(rep.GridNS)/1e6)
		rate = append(rate, float64(rep.Cells-rep.Failed)/grid.Seconds())
		minstr = append(minstr, float64(rep.Instructions)/grid.Seconds()/1e6)
		cpuMS = append(cpuMS, float64(rep.CPUNS)/1e6/float64(rep.Cells))
		rssMB = append(rssMB, float64(rep.HWMKB)/1024)
		logf("repetition %d: setup %.3f s, grid %.1f ms", len(setup), ready.Seconds(), float64(rep.GridNS)/1e6)
	}
	// Each repetition's grid is one operation from the caller's point of
	// view; its latency has one sample per repetition.  With fewer than ten
	// repetitions the nearest-rank p90 is the slowest of them.
	sorted := sortedCopy(gridMS)
	p90, _ := tailPercentile(sorted, 0.90, 0)
	out.set("setup_s", median(setup), "s")
	out.set("results_per_s", median(rate), "results/s")
	out.set("sim_minstr_per_s", median(minstr), "Minstr/s")
	out.set("latency_p50_ms", median(gridMS), "ms")
	out.set("latency_p90_ms", p90, "ms")
	out.set("cpu_ms_per_op", median(cpuMS), "ms")
	out.set("peak_rss_mb", median(rssMB), "MB")
	logf("paper-sweep: %d repetitions of %d cells; latency is per grid (%d samples, below the tail rule)%s",
		len(setup), len(paperCells(e.seed)), len(gridMS), describe(out.metrics))
	return out, nil
}

// repetitionTimeout bounds one paper-sweep process; a repetition takes
// about five seconds on two CPUs.
const repetitionTimeout = 2 * time.Minute

// runRepetition runs one paper-sweep repetition in a fresh process and
// returns its report and the time from process start to ready.
func runRepetition(ctx context.Context, self string, seed uint64) (repetition, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, repetitionTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-sweep-child", "-seed", fmt.Sprint(seed))
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return repetition{}, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return repetition{}, 0, err
	}
	rep, ready, err := readRepetition(stdout, t0)
	if werr := cmd.Wait(); err == nil {
		err = werr
	}
	return rep, ready, err
}

// readRepetition reads a repetition's "ready" line, timing it from t0, and
// then its report line.
func readRepetition(r io.Reader, t0 time.Time) (repetition, time.Duration, error) {
	var rep repetition
	sc := bufio.NewScanner(r)
	if !sc.Scan() || sc.Text() != "ready" {
		return rep, 0, fmt.Errorf("no ready line: %v", sc.Err())
	}
	ready := time.Since(t0)
	if !sc.Scan() {
		return rep, 0, fmt.Errorf("no report line: %v", sc.Err())
	}
	if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
		return rep, 0, fmt.Errorf("report line: %w", err)
	}
	_, _ = io.Copy(io.Discard, r)
	return rep, ready, nil
}
