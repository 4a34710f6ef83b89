package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// keyName is the benchmark's key format. Zero padding makes the
// Sketcher dictionary's sorted order equal the generation order, so key
// index i is dictionary position i.
func keyName(i int) string { return fmt.Sprintf("k%06d", i) }

// keyList returns the n key names in index order.
func keyList(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyName(i)
	}
	return keys
}

// newRNG returns the generator for one input stream of a run. Every
// input the program receives is drawn from streams of the run's seed.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// consensusSeed is every Sketcher's consensus seed: the default -seed of
// csagg, csnode and csstreamd. A deployment fixes it in its
// configuration, so it is not drawn from the run's seed; the data are.
const consensusSeed = 42

// shadow is the benchmark's own exact copy of a global aggregate: every
// key holds mode, except the keys in dev, which hold mode+dev[i]. It is
// computed from the generated inputs alone, never from program output.
type shadow struct {
	mode float64
	dev  map[int]float64
}

func newShadow() shadow { return shadow{dev: make(map[int]float64)} }

// add folds o into s.
func (s *shadow) add(o shadow) {
	s.mode += o.mode
	for i, d := range o.dev {
		s.dev[i] += d
	}
}

// sumShadows is the exact aggregate over a set of windows.
func sumShadows(ws []shadow) shadow {
	out := newShadow()
	for _, w := range ws {
		out.add(w)
	}
	return out
}

// rotateShadows opens a new, empty open window at age 0 and drops the
// windows past the ring's capacity, as Aggregator.Rotate does.
func rotateShadows(wins []shadow, capacity int) []shadow {
	wins = append([]shadow{newShadow()}, wins...)
	return wins[:min(len(wins), capacity)]
}

// kv is one key's exact deviation from the mode.
type kv struct {
	idx int
	dev float64
}

// ranked returns s's off-mode keys, largest |dev| first (ties by index).
func (s shadow) ranked() []kv {
	out := make([]kv, 0, len(s.dev))
	for i, d := range s.dev {
		if d != 0 {
			out = append(out, kv{i, d})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		da, db := math.Abs(out[a].dev), math.Abs(out[b].dev)
		if da != db {
			return da > db
		}
		return out[a].idx < out[b].idx
	})
	return out
}

// scale is the magnitude the comparison tolerances are relative to.
func (s shadow) scale() float64 {
	m := math.Abs(s.mode)
	for _, d := range s.dev {
		m = math.Max(m, math.Abs(d))
	}
	return m + 1
}

// splitNodes writes the two nodes' shares of one global delta: every
// key gets half the global value plus (node a) or minus (node b) a
// Gaussian noise term, so neither slice is majority-dominated on its
// own but their sum is exactly the delta.
func splitNodes(rng *rand.Rand, d shadow, noise float64, a, b []float64) {
	half := d.mode / 2
	for i := range a {
		e := noise * rng.NormFloat64()
		a[i] = half + e
		b[i] = half - e
	}
	for i, dv := range d.dev {
		a[i] += dv / 2
		b[i] += dv / 2
	}
}

// pickDistinct draws k distinct indices from [0, n).
func pickDistinct(rng *rand.Rand, n, k int) []int {
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		i := rng.IntN(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}
