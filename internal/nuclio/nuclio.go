// Package nuclio is the reproduction's comparison baseline: a serverless
// runtime structured like Nuclio (Fig. 1(c) of the paper) — a per-tenant
// "function processor" with a bounded pool of worker slots that spawns a
// real operating-system process per invocation and exchanges the request
// and response over pipes.
//
// Unlike the Sledge runtime, the spawned process executes the *native*
// implementation of each application, so CPU-bound functions run at native
// speed; the baseline instead pays real fork/exec, IPC, and kernel
// scheduling costs on every request — exactly the overheads the paper
// attributes to process-per-function designs.
//
// The worker process is this same binary re-executed with an environment
// marker; hosts must call MaybeWorkerMain at startup (tests do this from
// TestMain, commands from main).
package nuclio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"time"

	"sledge/internal/httpd"
	"sledge/internal/workloads/apps"
)

// workerEnv marks a process as a function worker.
const workerEnv = "SLEDGE_NUCLIO_WORKER"

// NoopFunction is a worker that exits immediately after startup; the churn
// experiment (Table 3) uses it to measure bare fork+exec+wait.
const NoopFunction = "__noop"

// MaybeWorkerMain turns the current process into a function worker if the
// worker environment marker is set: it reads the request from stdin, runs
// the named application's native implementation, writes the response to
// stdout, and exits. It returns false (without side effects) in ordinary
// processes.
func MaybeWorkerMain() bool {
	name := os.Getenv(workerEnv)
	if name == "" {
		return false
	}
	if name == NoopFunction {
		os.Exit(0)
	}
	app, ok := apps.Get(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "nuclio worker: unknown function %q\n", name)
		os.Exit(2)
	}
	req, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nuclio worker: read: %v\n", err)
		os.Exit(2)
	}
	resp := app.Native(req)
	if _, err := os.Stdout.Write(resp); err != nil {
		os.Exit(2)
	}
	os.Exit(0)
	return true // unreachable
}

// Config configures the baseline runtime.
type Config struct {
	// MaxWorkers bounds concurrent worker processes (the paper tunes
	// Nuclio's maxWorker to 16). Default 16.
	MaxWorkers int
	// InvokeTimeout bounds one invocation. Default 30 s.
	InvokeTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxWorkers == 0 {
		c.MaxWorkers = 16
	}
	if c.InvokeTimeout == 0 {
		c.InvokeTimeout = 30 * time.Second
	}
	return c
}

// Runtime is the process-per-invocation baseline.
type Runtime struct {
	cfg    Config
	exe    string
	slots  chan struct{}
	server *httpd.Server

	// Invocations counts completed requests; Failures counts errors.
	Invocations atomic.Uint64
	Failures    atomic.Uint64
}

// New builds the baseline runtime.
func New(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("nuclio: cannot locate own executable: %w", err)
	}
	rt := &Runtime{
		cfg:   cfg,
		exe:   exe,
		slots: make(chan struct{}, cfg.MaxWorkers),
	}
	rt.server = &httpd.Server{Handler: rt.handle}
	return rt, nil
}

// ErrUnknownFunction reports an unregistered function name.
var ErrUnknownFunction = errors.New("nuclio: unknown function")

// Invoke runs one request through a freshly spawned worker process,
// blocking for a worker slot if the pool is saturated.
func (rt *Runtime) Invoke(name string, req []byte) ([]byte, error) {
	if _, ok := apps.Get(name); !ok && name != NoopFunction {
		return nil, fmt.Errorf("%w: %s", ErrUnknownFunction, name)
	}
	rt.slots <- struct{}{}
	defer func() { <-rt.slots }()
	return rt.spawn(name, req)
}

// spawn is the per-invocation cold path: fork+exec, write the request over
// the stdin pipe, collect stdout, and reap the process.
func (rt *Runtime) spawn(name string, req []byte) ([]byte, error) {
	cmd := exec.Command(rt.exe)
	cmd.Env = append(os.Environ(), workerEnv+"="+name)
	cmd.Stdin = bytes.NewReader(req)
	var out bytes.Buffer
	var errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	if err := cmd.Start(); err != nil {
		rt.Failures.Add(1)
		return nil, fmt.Errorf("nuclio: spawn: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			rt.Failures.Add(1)
			return nil, fmt.Errorf("nuclio: worker %s: %w (%s)", name, err, strings.TrimSpace(errBuf.String()))
		}
	case <-time.After(rt.cfg.InvokeTimeout):
		_ = cmd.Process.Kill()
		<-done
		rt.Failures.Add(1)
		return nil, fmt.Errorf("nuclio: worker %s timed out", name)
	}
	rt.Invocations.Add(1)
	return out.Bytes(), nil
}

// SpawnNoop measures one bare fork+exec+wait cycle (Table 3's churn
// baseline).
func (rt *Runtime) SpawnNoop() error {
	_, err := rt.spawn(NoopFunction, nil)
	return err
}

func (rt *Runtime) handle(req *httpd.Request) httpd.Response {
	name := strings.TrimPrefix(req.Path, "/")
	if i := strings.IndexByte(name, '?'); i >= 0 {
		name = name[:i]
	}
	body, err := rt.Invoke(name, req.Body)
	switch {
	case errors.Is(err, ErrUnknownFunction):
		return httpd.Response{Status: 404, Body: []byte(err.Error() + "\n")}
	case err != nil:
		return httpd.Response{Status: 500, Body: []byte(err.Error() + "\n")}
	}
	return httpd.Response{Status: 200, Body: body}
}

// Serve runs the baseline's HTTP listener until Close.
func (rt *Runtime) Serve(ln net.Listener) error { return rt.server.Serve(ln) }

// Close stops the HTTP listener.
func (rt *Runtime) Close() error { return rt.server.Close() }
