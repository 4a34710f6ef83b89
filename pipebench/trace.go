package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layers a span's time is attributed to. They are the program's module
// names; "other" is the benchmark's own work between calls (input
// generation, checks, bookkeeping).
const (
	layerSensing  = "sensing"
	layerCluster  = "cluster"
	layerRecovery = "recovery"
	layerStream   = "stream"
	layerOther    = "other"
)

var layers = []string{layerSensing, layerCluster, layerRecovery, layerStream, layerOther}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the run's start. inner is time spent in a layer reached only
// inside this call (recovery inside DetectCluster or Outliers), read
// from the program's obs families at the same boundary.
type span struct {
	Name       string `json:"name"`
	Layer      string `json:"layer"`
	Start      int64  `json:"start_ns"`
	End        int64  `json:"end_ns"`
	Parent     int    `json:"parent"`
	Round      int    `json:"round"`
	InnerLayer string `json:"inner_layer,omitempty"`
	InnerNs    int64  `json:"inner_ns,omitempty"`
}

// tracer records spans in memory. A nil tracer records nothing, which
// is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// add records a finished span and returns its id (-1 when untraced).
func (t *tracer) add(name, layer string, parent, round int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Parent: parent, Round: round,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// open records a span whose end close sets later, so spans recorded in
// between can name it as their parent.
func (t *tracer) open(name, layer string, parent, round int, start time.Time) int {
	return t.add(name, layer, parent, round, start, start)
}

func (t *tracer) close(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
}

// setInner attributes d of span id's time to layer.
func (t *tracer) setInner(id int, layer string, d time.Duration) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].InnerLayer = layer
	t.spans[id].InnerNs = d.Nanoseconds()
}

// stats returns the count and total duration of the spans named name.
func (t *tracer) stats(name string) (n int, total time.Duration) {
	if t == nil {
		return 0, 0
	}
	for _, s := range t.spans {
		if s.Name == name {
			n++
			total += time.Duration(s.End - s.Start)
		}
	}
	return n, total
}

// selfTimes splits the traced wall time into layer self times. At every
// instant the innermost active spans (those with no active descendant)
// share the instant equally, so nested calls charge their parent nothing
// and parallel calls on different goroutines split the wall time instead
// of double counting it. A span's inner time then moves from its own
// layer to the inner layer. The result sums to the union of all spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration, len(layers))
	if t == nil {
		return out
	}
	type event struct {
		at    int64
		id    int
		start bool
	}
	evs := make([]event, 0, 2*len(t.spans))
	for i, s := range t.spans {
		if s.End > s.Start {
			evs = append(evs, event{s.Start, i, true}, event{s.End, i, false})
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return !evs[a].start && evs[b].start // close before open at a shared instant
	})
	active := make(map[int]bool)
	self := make([]float64, len(t.spans))
	isAncestor := func(a, b int) bool { // a is a strict ancestor of b
		for p := t.spans[b].Parent; p >= 0; p = t.spans[p].Parent {
			if p == a {
				return true
			}
		}
		return false
	}
	var prev int64
	for _, e := range evs {
		if dt := e.at - prev; dt > 0 && len(active) > 0 {
			var leaves []int
			for a := range active {
				leaf := true
				for b := range active {
					if a != b && isAncestor(a, b) {
						leaf = false
						break
					}
				}
				if leaf {
					leaves = append(leaves, a)
				}
			}
			for _, a := range leaves {
				self[a] += float64(dt) / float64(len(leaves))
			}
		}
		prev = e.at
		if e.start {
			active[e.id] = true
		} else {
			delete(active, e.id)
		}
	}
	for i, s := range t.spans {
		own := self[i]
		if s.InnerNs > 0 {
			moved := min(float64(s.InnerNs), own)
			out[s.InnerLayer] += time.Duration(moved)
			own -= moved
		}
		out[s.Layer] += time.Duration(own)
	}
	return out
}

// write saves every span as one JSON line under dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
