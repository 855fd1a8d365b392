package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// httpTimeout bounds every HTTP call the benchmark makes; the slowest
// legitimate call is one cold 64k-op simulation, well under a second.
const httpTimeout = 30 * time.Second

// newClient returns an HTTP client for at most conns concurrent
// connections: closed-loop callers each hold one keep-alive connection.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: httpTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends one JSON body and returns the status and the full response.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// syncBuffer is a bytes.Buffer safe to write from the exec copier while
// the benchmark reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// server is one running memdep-server process.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr *syncBuffer
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// stop kills the server and waits until it has been reaped.
func (s *server) stop() {
	_ = s.cmd.Process.Kill() // it may already have exited; Wait reaps it either way
	<-s.exited
}

// usage samples the server's CPU time and peak RSS.
func (s *server) usage() (procUsage, error) { return readProcUsage(s.cmd.Process.Pid) }

// freePort asks the kernel for a free loopback port.  Another process may
// take it before the server binds it; startServer retries when that happens.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// childEnv is the environment of every program process: the caller's,
// minus the variable that would silently attach a shared result store.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "MEMDEP_STORE=") {
			env = append(env, kv)
		}
	}
	return env
}

// startServer starts memdep-server on a free loopback port with the given
// extra flags and returns once it answers its health check.  A bind
// failure (the port was taken in between) is retried on a fresh port.
func startServer(ctx context.Context, bin string, flags ...string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		s := &server{url: "http://" + addr, stderr: &syncBuffer{}, exited: make(chan struct{})}
		s.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
		s.cmd.Env = childEnv()
		s.cmd.Stderr = s.stderr
		// The kernel kills the server if the benchmark dies first.
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := s.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
		}
		go func() {
			s.err = s.cmd.Wait()
			close(s.exited)
		}()
		err = waitReady(ctx, s, healthy)
		if err == nil {
			return s, nil
		}
		s.stop()
		lastErr = err
		if !strings.Contains(s.stderr.String(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

// waitReady polls ready until it succeeds, the server exits or 20 s pass.
func waitReady(ctx context.Context, s *server, ready func(ctx context.Context, url string) error) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before ready (%v): %s", s.err, strings.TrimSpace(s.stderr.String()))
		default:
		}
		rctx, cancel := context.WithTimeout(ctx, time.Second)
		err := ready(rctx, s.url)
		cancel()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("server not ready: %w", errors.Join(err, ctx.Err()))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// probeClient serves readiness probes and stats scrapes.
var probeClient = newClient(1)

// healthy is the readiness check of every role: GET /v1/healthz says ok.
func healthy(ctx context.Context, url string) error {
	var v struct {
		Status string `json:"status"`
	}
	if err := getJSON(ctx, probeClient, url+"/v1/healthz", &v); err != nil {
		return err
	}
	if v.Status != "ok" {
		return fmt.Errorf("healthz status %q", v.Status)
	}
	return nil
}

// fleetReady is the readiness check of a coordinator: want workers healthy.
func fleetReady(want int) func(ctx context.Context, url string) error {
	return func(ctx context.Context, url string) error {
		var v struct {
			Healthy int `json:"healthy"`
		}
		if err := getJSON(ctx, probeClient, url+"/v1/fleet/workers", &v); err != nil {
			return err
		}
		if v.Healthy < want {
			return fmt.Errorf("%d of %d workers healthy", v.Healthy, want)
		}
		return nil
	}
}

// statz is the part of GET /v1/statz the benchmark reads.
type statz struct {
	Stats struct {
		Executed   uint64      `json:"executed"`
		Hits       uint64      `json:"hits"`
		CachedJobs int         `json:"cached_jobs"`
		Store      *statzStore `json:"store"`
	} `json:"stats"`
}

// statzStore is the persistent store's part of the session stats.
type statzStore struct {
	Counters struct {
		Writes      uint64 `json:"writes"`
		WriteErrors uint64 `json:"write_errors"`
	} `json:"counters"`
}

// readStatz scrapes a session server's counters.
func readStatz(ctx context.Context, url string) (statz, error) {
	var st statz
	err := getJSON(ctx, probeClient, url+"/v1/statz", &st)
	return st, err
}

// dirBytes returns the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
