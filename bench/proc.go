package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// proc is a child process of the benchmark. Every proc is registered
// until it has been reaped, so that an exit on any path — normal, error
// or SIGINT — leaves none behind.
type proc struct {
	cmd *exec.Cmd
	// done is closed once the process has been waited for; cmd's
	// ProcessState is valid from then on.
	done chan struct{}
}

var children struct {
	sync.Mutex
	procs map[*proc]bool
}

// startProc starts cmd and registers it.
func startProc(cmd *exec.Cmd) (*proc, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	if children.procs == nil {
		children.procs = map[*proc]bool{}
	}
	children.procs[p] = true
	children.Unlock()
	go func() {
		_ = cmd.Wait()
		children.Lock()
		delete(children.procs, p)
		children.Unlock()
		close(p.done)
	}()
	return p, nil
}

// kill kills the process and returns once it has been reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// killChildren kills and reaps every registered process.
func killChildren() {
	children.Lock()
	var procs []*proc
	for p := range children.procs {
		procs = append(procs, p)
	}
	children.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// killChildrenOnSignal makes SIGINT/SIGTERM kill the children before the
// benchmark itself exits.
func killChildrenOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killChildren()
		os.Exit(130)
	}()
}

// buildBinaries builds cmd/sparqld and cmd/sparqlanalyze of the checkout
// at root into dir and returns how long that took.
func buildBinaries(root, dir string) (time.Duration, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", abs+string(filepath.Separator), "./cmd/sparqld", "./cmd/sparqlanalyze")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return time.Since(t0), nil
}

// sparqld is one running sparqld child.
type sparqld struct {
	*proc
	base string // http://127.0.0.1:port
	// setup is the time from exec to the first 200 from /healthz.
	setup time.Duration
}

// startSparqld starts `sparqld -data data -addr 127.0.0.1:<free port>
// -timeout 5s` — default cache, admission and gate, as users run it —
// and waits for /healthz.
func startSparqld(bin, data string, stderr io.Writer) (*sparqld, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	cmd := exec.Command(bin, "-data", data, "-addr", addr, "-timeout", "5s")
	cmd.Stderr = stderr
	t0 := time.Now()
	p, err := startProc(cmd)
	if err != nil {
		return nil, err
	}
	s := &sparqld{proc: p, base: "http://" + addr}
	hc := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 60*time.Second {
		select {
		case <-p.done:
			return nil, fmt.Errorf("sparqld exited before answering /healthz: %v", cmd.ProcessState)
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(t0)
				hc.CloseIdleConnections()
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return nil, fmt.Errorf("sparqld did not answer /healthz at %s", addr)
}

// cpuTime returns the child's CPU time, user plus system over all its
// threads, from the process's CPU-time clock: the total that
// /proc/<pid>/stat reports in 10 ms ticks, in nanoseconds.
func (s *sparqld) cpuTime() (time.Duration, error) {
	// The clock's id is built as clock_getcpuclockid(3) builds it:
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
	clock := uintptr(^s.cmd.Process.Pid<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime on the CPU clock of process %d: %w", s.cmd.Process.Pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// cpuSample is the child's cumulative CPU time as read at one instant.
type cpuSample struct {
	at  time.Time
	cpu time.Duration
}

// sampleCPU reads the child's CPU time now and then every interval, until
// stop is called; stop returns the readings.
func (s *sparqld) sampleCPU(every time.Duration) (stop func() []cpuSample) {
	quit, done := make(chan struct{}), make(chan struct{})
	var series []cpuSample
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if cpu, err := s.cpuTime(); err == nil {
				series = append(series, cpuSample{time.Now(), cpu})
			}
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() []cpuSample {
		close(quit)
		<-done
		return series
	}
}

// peakRSS returns the process's VmHWM in bytes.
func (p *proc) peakRSS() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrapeMetrics reads sparqld's /metrics into name -> value; labelled
// series keep their label text in the name.
func (s *sparqld) scrapeMetrics() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				m[line[:i]] = v
			}
		}
	}
	return m, sc.Err()
}
