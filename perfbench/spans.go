package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one request share RID (the X-Spmm-Request-Id the benchmark
// sends), so the benchmark's spans line up with the server's own records.
type span struct {
	Name  string
	Layer string
	Lane  int
	RID   string
	Start time.Time
	Dur   time.Duration
}

// recorder keeps spans in memory and writes them out when the run ends.
// A nil recorder records nothing, so untraced runs pay one nil check.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// maxSpans bounds the recorder's memory; later spans are counted, not kept.
const maxSpans = 1 << 18

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(layer, name string, lane int, rid string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{Name: name, Layer: layer, Lane: lane, RID: rid, Start: start, Dur: dur})
	}
	r.mu.Unlock()
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing,
// Perfetto), one thread lane per client, with the host fingerprint as
// metadata.
func (r *recorder) writeChrome(path string, fp fingerprint) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		e := event{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start.Sub(r.t0)) / 1e3, Dur: float64(s.Dur) / 1e3,
			Pid: 1, Tid: s.Lane}
		if s.RID != "" {
			e.Args = map[string]string{"rid": s.RID}
		}
		events = append(events, e)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "otherData": fp}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayerTable writes the per-layer table: each metric, its value and
// the end-to-end metric it should move.
func printLayerTable(w io.Writer, values map[string]float64) {
	fmt.Fprintf(w, "%-34s %14s %-8s %s\n", "per-layer metric", "value", "unit", "should move")
	for _, d := range perLayer {
		v, ok := values[d.Name]
		val := "n/a"
		if ok {
			val = fmt.Sprintf("%.4f", v)
		}
		fmt.Fprintf(w, "%-34s %14s %-8s %s\n", d.Name, val, d.Unit, d.Moves)
	}
}
