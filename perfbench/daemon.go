package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"securityrbsg/internal/memserver"
)

// daemon is one memctld or memrouterd process the benchmark started.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	ctlFile string // the daemon writes its HTTP control address here
	binFile string // ... and its binary data-plane address here
	ctl     string
	bin     string
	done    chan struct{} // closed when the process has exited
	err     error         // exit status, valid once done is closed
	log     *os.File
}

// daemons tracks every process started, so any exit path can stop them.
var daemons struct {
	mu  sync.Mutex
	all []*daemon
}

// startDaemon launches bin with args plus the address-file flags. Its
// stderr goes to <work>/<name>.log. The child is killed if the
// benchmark dies first.
func startDaemon(work, bin, name string, args ...string) (*daemon, error) {
	d := &daemon{
		name:    name,
		ctlFile: filepath.Join(work, name+".ctl"),
		binFile: filepath.Join(work, name+".bin"),
		done:    make(chan struct{}),
	}
	for _, f := range []string{d.ctlFile, d.binFile} {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	log, err := os.Create(filepath.Join(work, name+".log"))
	if err != nil {
		return nil, err
	}
	d.log = log
	args = append(args,
		"-addr", "127.0.0.1:0", "-addr-file", d.ctlFile,
		"-binary-addr", "127.0.0.1:0", "-binary-addr-file", d.binFile)
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	daemons.mu.Lock()
	daemons.all = append(daemons.all, d)
	daemons.mu.Unlock()
	go func() {
		d.err = d.cmd.Wait()
		d.log.Close()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// awaitAddrs polls the address files until both are written.
func (d *daemon) awaitAddrs(ctx context.Context) error {
	for d.ctl == "" || d.bin == "" {
		d.ctl, d.bin = readAddr(d.ctlFile), readAddr(d.binFile)
		if d.ctl != "" && d.bin != "" {
			return nil
		}
		if err := d.pause(ctx); err != nil {
			return err
		}
	}
	return nil
}

// awaitHealthy polls GET /healthz until it answers 200.
func (d *daemon) awaitHealthy(ctx context.Context) error {
	for !healthy(d.ctl) {
		if err := d.pause(ctx); err != nil {
			return err
		}
	}
	return nil
}

// pause waits one poll period, failing if the daemon exited or ctx ended.
func (d *daemon) pause(ctx context.Context) error {
	select {
	case <-d.done:
		return fmt.Errorf("%s exited during start-up: %v (see %s)", d.name, d.err, d.log.Name())
	case <-ctx.Done():
		return fmt.Errorf("%s not ready: %w", d.name, ctx.Err())
	case <-time.After(time.Millisecond):
		return nil
	}
}

// readAddr returns the address in file, or "" while it is not written.
func readAddr(file string) string {
	b, err := os.ReadFile(file)
	if err != nil {
		return ""
	}
	a := strings.TrimSpace(string(b))
	if !strings.Contains(a, ":") {
		return ""
	}
	return a
}

var httpClient = &http.Client{Timeout: 5 * time.Second}

func healthy(ctl string) bool {
	resp, err := httpClient.Get("http://" + ctl + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// metrics scrapes the daemon's /metrics, summed over labels.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := httpClient.Get("http://" + d.ctl + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("%s /metrics: %w", d.name, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s /metrics: %w", d.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", d.name, resp.Status)
	}
	return memserver.ParseMetrics(string(b)), nil
}

// stop sends SIGTERM and waits for a clean drain, killing the process
// if it outlives the timeout. It reports a non-zero exit.
func (d *daemon) stop(timeout time.Duration) error {
	select {
	case <-d.done:
		return d.exitErr()
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
		return d.exitErr()
	case <-time.After(timeout):
		d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("%s did not drain within %v (see %s)", d.name, timeout, d.log.Name())
	}
}

func (d *daemon) exitErr() error {
	if d.err != nil {
		return fmt.Errorf("%s: %v (see %s)", d.name, d.err, d.log.Name())
	}
	return nil
}

// kill kills the process if it is still running and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Kill()
		<-d.done
	}
}

// killAll kills every daemon still running and waits for each to exit.
func killAll() {
	daemons.mu.Lock()
	all := daemons.all
	daemons.all = nil
	daemons.mu.Unlock()
	for _, d := range all {
		d.kill()
	}
}
