package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one child process of the benchmark (a root or a worker).
type proc struct {
	name string
	addr string
	cmd  *exec.Cmd
	done chan struct{}
	log  *os.File
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startProc launches bin with args, its output going to a log file in
// dir, and waits until ready reports the process serving.
func startProc(dir, name, bin string, args []string, addr string, ready func(addr string) bool) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A child must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for !ready(addr) {
		select {
		case <-p.done:
			logf.Close()
			return nil, fmt.Errorf("%s exited during start-up (see %s)", name, logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s not ready after 60s", name)
		}
	}
	return p, nil
}

func tcpReady(addr string) bool {
	c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
	if err != nil {
		return false
	}
	c.Close()
	return true
}

func httpReady(addr string) bool {
	resp, err := http.Get("http://" + addr + "/api/status")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// vmHWM is the process's peak resident set in bytes.
func (p *proc) vmHWM() int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// stop terminates the process (SIGTERM, then SIGKILL after 10s) and
// waits until it has exited.
func (p *proc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// deployment is one launch of the program: its processes, in start order.
type deployment struct {
	procs []*proc
	root  string // HTTP address of the root
}

func (c *deployment) peakRSS() int64 {
	var s int64
	for _, p := range c.procs {
		s += p.vmHWM()
	}
	return s
}

// stop ends every process (root first) and fails if any of them or any
// of their listeners outlived the stop.
func (c *deployment) stop() error {
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop()
	}
	for _, p := range c.procs {
		if p.cmd.ProcessState == nil {
			return fmt.Errorf("%s (pid %d) outlived the run", p.name, p.cmd.Process.Pid)
		}
		ln, err := net.Listen("tcp", p.addr)
		if err != nil {
			return fmt.Errorf("listener %s of %s outlived the run: %v", p.addr, p.name, err)
		}
		ln.Close()
	}
	return nil
}

// launch starts the workload's workers and root from the binaries in
// binDir, logging into dir.
func launch(w *Workload, binDir, dir string) (*deployment, error) {
	c := &deployment{}
	var addrs []string
	for g := 0; g < w.Workers; g++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-listen", addr, "-parallelism", "1"}
		if w.PoolBudget > 0 {
			args = append(args, "-pool-budget", strconv.FormatInt(w.PoolBudget, 10))
		}
		p, err := startProc(dir, fmt.Sprintf("worker-%d", g), filepath.Join(binDir, "hillview-worker"), args, addr, tcpReady)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, p)
		addrs = append(addrs, addr)
	}
	addr, err := freeAddr()
	if err != nil {
		c.stop()
		return nil, err
	}
	args := []string{"-http", addr}
	if len(addrs) > 0 {
		args = append(args, "-workers", strings.Join(addrs, ","))
	}
	if w.Grow {
		args = append(args, "-ingest-dir", filepath.Join(dir, "ingest"))
	}
	p, err := startProc(dir, "root", filepath.Join(binDir, "hillview"), args, addr, httpReady)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.procs = append(c.procs, p)
	c.root = addr
	return c, nil
}
