// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload under a seed for a fixed time, checks every output the
// program returns, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The paper's format suite runs through the library kernel API; serving
// runs against real spmmserve/spmmrouter processes over loopback. Build and
// run it from the repository root with
//
//	bash perfbench/run.sh --workload serve-mutate --seed 1 --seconds 30 --trace 0
//
// which builds the program and this command from source first.
// README.md describes the workloads, the metrics and the recorded runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is one run's configuration.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	bin      string // directory holding the built spmmserve and spmmrouter
	work     string // per-run scratch directory (data dirs), removed at exit
	outDir   string // where traced runs write their trace files
	threads  int
	out      io.Writer
	rec      *recorder
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// problem records a failed correctness check (the first few are kept).
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"suite-formats": runSuite,
	"serve-mutate":  func(e *env) (*outcome, error) { return runServe(e, serveMutate) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Int("seconds", 10, "measured seconds")
		traced   = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
		binDir   = flag.String("bin", ".bench_build/bin", "directory holding the built spmmserve and spmmrouter")
		outDir   = flag.String("out", ".bench_build/out", "directory for trace files")
		steady   = flag.Int("steady", 0, "steadiness report: run the workload this many times with seeds seed, seed+1, ... and print each metric's median, quartiles and spread")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1"))
	}
	if *steady > 0 {
		if err := steadiness(os.Stdout, *workload, *seed, *seconds, *traced, *steady, os.Args[0], *binDir, *outDir); err != nil {
			fatal(err)
		}
		return
	}
	bin, err := filepath.Abs(*binDir)
	if err != nil {
		fatal(err)
	}
	for _, name := range []string{"spmmserve", "spmmrouter"} {
		if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
			fatal(fmt.Errorf("program binary missing (build it with perfbench/run.sh): %w", err))
		}
	}
	work, err := os.MkdirTemp(filepath.Dir(bin), "run-")
	if err != nil {
		fatal(err)
	}
	e := &env{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *traced == 1, bin: bin, work: work, outDir: *outDir,
		threads: runtime.GOMAXPROCS(0), out: os.Stdout,
	}
	if e.traced {
		e.rec = newRecorder()
	}
	stopOnSignal(work)
	code := run(e)
	stopAll()
	os.RemoveAll(work)
	os.Exit(code)
}

func run(e *env) int {
	fp := hostFingerprint(e.workload, e.seed, e.bin)
	fp.print(e.out)
	o, err := workloads[e.workload](e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	rep := report{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed}
	if e.traced {
		printLayerTable(e.out, o.layer)
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		path := filepath.Join(e.outDir, fmt.Sprintf("trace-%s-seed%d.json", e.workload, e.seed))
		if err := e.rec.writeChrome(path, fp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(e.out, "# trace written to %s\n", path)
		rep.Metrics, err = collect(perLayer, finite(o.layer), true)
	} else {
		for _, d := range endToEnd {
			fmt.Fprintf(e.out, "%-16s %14.4f %s\n", d.Name, o.e2e[d.Name], d.Unit)
		}
		rep.Metrics, err = collect(endToEnd, finite(o.e2e), false)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(e.out, string(line))
	return 0
}

// finite drops NaN and infinite values, which JSON cannot carry; a
// dropped end-to-end metric then fails the run as unmeasured.
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// stopOnSignal stops every started process and removes the scratch
// directory when the benchmark itself is interrupted.
func stopOnSignal(work string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopAll()
		os.RemoveAll(work)
		os.Exit(1)
	}()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// mix derives an independent 63-bit seed for one purpose from the
// workload seed (splitmix64 finalizer).
func mix(seed int64, tag string) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	for _, c := range tag {
		z = (z ^ uint64(c)) * 0xbf58476d1ce4e5b9
	}
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
