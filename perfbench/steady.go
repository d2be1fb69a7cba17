package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadiness runs the workload n times, seeds seed..seed+n-1, each in a
// fresh process, and prints per metric the median, the quartiles and the
// spread (q3 − q1) / median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them. The bounds in
// BENCHMARK.json are set from this report.
func steadiness(w io.Writer, workload string, seed int64, seconds, traced, n int, self, binDir, outDir string) error {
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []string
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced),
			"-bin", binDir, "-out", outDir)
		cmd.Stderr = os.Stderr
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			return fmt.Errorf("seed %d: last line is not a report: %w", s, err)
		}
		if !rep.Correct {
			return fmt.Errorf("seed %d: outputs failed their checks", s)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", rep.Failed, rep.Attempted))
		for name, v := range rep.Metrics {
			values[name] = append(values[name], v.Value)
			units[name] = v.Unit
		}
		for _, l := range lines {
			if strings.Contains(l, "host steal") || strings.HasPrefix(l, "# host slowdown") || strings.HasPrefix(l, "# raw ") {
				fmt.Fprintf(w, "# seed %d %s\n", s, strings.TrimPrefix(l, "# "))
			}
		}
		fmt.Fprintf(w, "# seed %d: %s\n", s, lines[len(lines)-1])
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s, %d runs of %ds, failed/attempted per run: %s\n",
		workload, n, seconds, strings.Join(shares, " "))
	fmt.Fprintf(w, "%-34s %12s %12s %12s %9s  %s\n", "metric", "median", "q1", "q3", "spread", "unit")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		fmt.Fprintf(w, "%-34s %12.4f %12.4f %12.4f %8.2f%%  %s\n",
			name, q2, q1, q3, (q3-q1)/q2*100, units[name])
	}
	return nil
}
