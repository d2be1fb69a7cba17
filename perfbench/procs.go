package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"
)

// proc is one started program process (spmmserve or spmmrouter).
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stderr hits EOF (the process exited)

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
}

var (
	procsMu sync.Mutex
	running = map[*proc]bool{}
)

// Readiness lines: each program logs its bound address once it listens.
var (
	serveReady  = regexp.MustCompile(`msg="spmmserve listening" addr=(\S+)`)
	routerReady = regexp.MustCompile(`listening on (\S+), fleet`)
)

// startProc launches a program and returns once it logs its listening
// address (read from its stderr as it is written, so no polling delay
// enters set-up time).
func startProc(name, path string, args []string, ready *regexp.Regexp) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(path, args...), drained: make(chan struct{})}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	procsMu.Lock()
	running[p] = true
	procsMu.Unlock()
	addr := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !found {
				if m := ready.FindStringSubmatch(line); m != nil {
					found = true
					addr <- m[1]
				}
			}
			p.mu.Lock()
			if len(p.tail) == 20 {
				p.tail = p.tail[1:]
			}
			p.tail = append(p.tail, line)
			p.mu.Unlock()
		}
	}()
	select {
	case a := <-addr:
		p.addr = a
		return p, nil
	case <-p.drained:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening: %s", name, p.stderrTail())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 30s: %s", name, p.stderrTail())
	}
}

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// stop interrupts the process (it drains gracefully), kills it if it has
// not exited after 10s, and waits for it.
func (p *proc) stop() {
	procsMu.Lock()
	if !running[p] {
		procsMu.Unlock()
		return
	}
	delete(running, p)
	procsMu.Unlock()
	p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.drained:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.drained
	}
	p.cmd.Wait()
}

// stopAll stops every process still running.
func stopAll() {
	procsMu.Lock()
	ps := make([]*proc, 0, len(running))
	for p := range running {
		ps = append(ps, p)
	}
	procsMu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// vmHWM reads a process's peak resident set (VmHWM) in MiB; NaN when
// unreadable.
func vmHWM(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

func (p *proc) rssMB() float64 { return vmHWM(strconv.Itoa(p.cmd.Process.Pid)) }

// selfRSSMB is this process's peak resident set in MiB.
func selfRSSMB() float64 { return vmHWM("self") }

// freeAddr returns a loopback address with a port free at the time of
// the call, for listeners whose bound port a program does not log.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func nan() float64 { return math.NaN() }

func mib(n int64) string { return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20)) }

// cpuTimes is the aggregate CPU time line of /proc/stat, in ticks.
type cpuTimes struct{ steal, total uint64 }

// readSteal reads the time the hypervisor gave this host's CPUs to others.
func readSteal() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t cpuTimes
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		t.total += n
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

// since is the share of CPU time stolen since an earlier reading, in %.
func (t cpuTimes) since(earlier cpuTimes) float64 {
	if t.total <= earlier.total {
		return 0
	}
	return float64(t.steal-earlier.steal) / float64(t.total-earlier.total) * 100
}
