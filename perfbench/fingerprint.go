package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the host and the program build a report came
// from. Two reports are comparable only when their fingerprints agree.
type fingerprint struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	GOARCH     string            `json:"goarch"`
	GoVersion  string            `json:"go_version"`
	CPUModel   string            `json:"cpu_model"`
	Caches     []string          `json:"caches"`
	L2Bytes    int64             `json:"l2_bytes"`
	L3Bytes    int64             `json:"l3_bytes"`
	Seed       int64             `json:"seed"`
	Workload   string            `json:"workload"`
	Binaries   map[string]string `json:"binaries"`
}

func hostFingerprint(workload string, seed int64, binDir string) fingerprint {
	fp := fingerprint{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		CPUModel: cpuModel(), Seed: seed, Workload: workload,
		Binaries: map[string]string{},
	}
	fp.Caches, fp.L2Bytes, fp.L3Bytes = cacheSizes()
	for _, name := range []string{"spmmserve", "spmmrouter"} {
		fp.Binaries[name] = binaryInfo(filepath.Join(binDir, name))
	}
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes lists cpu0's caches from sysfs ("L2 Unified 2048K") and
// returns the L2 and L3 sizes in bytes (0 when unreadable).
func cacheSizes() (desc []string, l2, l3 int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	sort.Strings(dirs)
	read := func(dir, name string) string {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return ""
		}
		return strings.TrimSpace(string(b))
	}
	for _, d := range dirs {
		level, typ, size := read(d, "level"), read(d, "type"), read(d, "size")
		desc = append(desc, fmt.Sprintf("L%s %s %s", level, typ, size))
		var n int64
		var unit string
		fmt.Sscanf(size, "%d%s", &n, &unit)
		switch unit {
		case "K":
			n <<= 10
		case "M":
			n <<= 20
		}
		switch level {
		case "2":
			l2 = n
		case "3":
			l3 = n
		}
	}
	return desc, l2, l3
}

// binaryInfo names the Go version and module of a built program plus a
// short digest of the file, which changes with any rebuild from other
// sources.
func binaryInfo(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "missing"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unreadable"
	}
	sum := hex.EncodeToString(h.Sum(nil))[:12]
	bi, err := buildinfo.ReadFile(path)
	if err != nil {
		return "sha256:" + sum
	}
	return fmt.Sprintf("%s %s sha256:%s", bi.GoVersion, bi.Path, sum)
}

func (fp fingerprint) print(w io.Writer) {
	fmt.Fprintf(w, "# host: %s, GOARCH=%s, NumCPU=%d, GOMAXPROCS=%d, %s\n",
		fp.CPUModel, fp.GOARCH, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion)
	fmt.Fprintf(w, "# caches: %s\n", strings.Join(fp.Caches, ", "))
	fmt.Fprintf(w, "# workload=%s seed=%d\n", fp.Workload, fp.Seed)
	names := make([]string, 0, len(fp.Binaries))
	for n := range fp.Binaries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# binary %s: %s\n", n, fp.Binaries[n])
	}
}
