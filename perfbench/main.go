// Command perfbench is the repository's benchmark: it drives the memdep
// simulator through one workload, checks every output and prints one JSON
// result line.  It is normally started through run.sh, which builds the
// program under test from the checkout first:
//
//	bash perfbench/run.sh --workload warm-hits --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it comes from a separate traced run and
// carries the per-layer metrics.  README.md describes the workloads and
// metrics; spread.sh summarizes repeated runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run produced.  Every failed check counts
// as at least one failed operation.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

// newOutcome returns an empty outcome.
func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// set records a metric.
func (o *outcome) set(name string, value float64, unit string) {
	o.metrics[name] = metric{Value: value, Unit: unit}
}

// fail counts n failed operations and logs why.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	logf("FAILED: "+format, args...)
}

// env is the run's configuration.
type env struct {
	workload string
	seed     uint64
	seconds  time.Duration
	server   string // memdep-server binary under test
	workdir  string // scratch directory for this run, removed at exit
	spans    string // directory the traced run writes its spans to
	nproc    int
}

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(context.Context, env) (*outcome, error){
	"paper-sweep":   runPaperSweep,
	"cold-requests": runColdRequests,
	"warm-hits":     runWarmHits,
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: paper-sweep, cold-requests or warm-hits")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 30, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	serverBin := fs.String("server", "", "memdep-server binary under test")
	workdir := fs.String("workdir", "", "scratch directory for stores and spans (removed afterwards)")
	spans := fs.String("spans", "", "directory the traced run writes its spans to")
	sweepChild := fs.Bool("sweep-child", false, "internal: one paper-sweep repetition in this process")
	writeDigest := fs.String("write-digest", "", "recompute the paper-sweep digest and write it to this file")
	summarize := fs.String("summarize", "", "print the spread of the result lines under this directory")
	against := fs.String("against", "", "with -summarize: compare medians against this earlier result directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	switch {
	case *sweepChild:
		return sweepRepetition(ctx, *seed, stdout)
	case *writeDigest != "":
		return writeSweepDigest(ctx, *writeDigest)
	case *summarize != "":
		return printSpread(stdout, "BENCHMARK.json", *summarize, *against)
	}

	runFn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *workload)
	}
	if *seed >= 1<<40 {
		return fmt.Errorf("-seed must be below 2^40")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *traced)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, not %d", *seconds)
	}
	if *serverBin == "" || *workdir == "" {
		return errors.New("-server and -workdir are required (run.sh sets them)")
	}
	e := env{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		server:   *serverBin,
		workdir:  *workdir,
		spans:    *spans,
		nproc:    runtime.NumCPU(),
	}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.workdir)
	logf("%s seed=%d trace=%d %s %s/%s nproc=%d GOMAXPROCS=%d",
		e.workload, e.seed, *traced, runtime.Version(), runtime.GOOS, runtime.GOARCH, e.nproc, runtime.GOMAXPROCS(0))

	var out *outcome
	var err error
	if *traced == 1 {
		out, err = runTraced(ctx, e)
	} else {
		out, err = runFn(ctx, e)
	}
	if err != nil {
		return err
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// freshDir creates a new empty directory under the run's workdir.
func freshDir(e env, prefix string) (string, error) {
	return os.MkdirTemp(e.workdir, prefix+"-")
}

// describe renders a metric set for the log, sorted by name.
func describe(ms map[string]metric) string {
	var b strings.Builder
	for _, name := range sortedKeys(ms) {
		fmt.Fprintf(&b, "\n  %-36s %14.4f %s", name, ms[name].Value, ms[name].Unit)
	}
	return b.String()
}

// writeSpans writes the traced run's spans, one JSON object per line.
func writeSpans(dir, name string, spans []span) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
