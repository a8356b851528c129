package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// End-to-end numbers come from the shipped binaries, built from the
// checkout the benchmark runs in and driven from outside.

// repoRoot walks up from the working directory to the module root.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildBinaries compiles cmd/monitord and cmd/scenarios into binDir. With
// a warm build cache this is a no-op link check; it is not part of setup_s.
func buildBinaries(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/monitord", "./cmd/scenarios")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build: %w\n%s", err, out)
	}
	return nil
}

// daemon is one running cmd/monitord child.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stopped bool
	stopErr error
}

// startDaemon launches monitord on a free loopback port and returns once
// it has logged the bound address (it listens before it logs).
func startDaemon(bin string, extraArgs ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			d.base = "http://" + addr
			// Keep draining so the daemon never blocks on a full pipe.
			go func() { _, _ = io.Copy(io.Discard, stderr) }()
			return d, nil
		}
	}
	_ = d.stop()
	return nil, errors.New("bench: monitord exited before listening")
}

// stop sends SIGTERM and waits for the daemon's graceful shutdown; a
// second call returns the first one's outcome.
func (d *daemon) stop() error {
	if !d.stopped {
		d.stopped, d.stopErr = true, d.terminate()
	}
	return d.stopErr
}

func (d *daemon) terminate() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return errors.New("bench: monitord did not stop within 15s of SIGTERM")
	}
}

// cpuSeconds reads the child's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz on Linux).
	_, rest, ok := strings.Cut(string(b), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, errors.New("bench: malformed /proc stat")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB reads the child's resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("bench: no VmHWM in /proc status")
}

// jobResult is one finished child process that ran to completion.
type jobResult struct {
	stdout []byte
	wall   time.Duration
	cpu    time.Duration
	rssMB  float64
}

// runJob runs a child to completion and reports its wall time, CPU time
// and peak RSS from the kernel's accounting.
func runJob(bin string, args ...string) (jobResult, error) {
	cmd := exec.Command(bin, args...)
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	start := time.Now()
	out, err := cmd.Output()
	wall := time.Since(start)
	if err != nil {
		return jobResult{}, fmt.Errorf("bench: %s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, errBuf.String())
	}
	ps := cmd.ProcessState
	res := jobResult{stdout: out, wall: wall, cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}
