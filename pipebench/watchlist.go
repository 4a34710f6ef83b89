package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"csoutlier"
	"csoutlier/internal/stream"
)

// watchlist: the recovery-free point path. Two count-sketch push nodes
// observe every key each round, one Node.Observe at a time as csnode
// does, and flush every pushChunk keys. The aggregator rotates every
// round and the watch span covers the whole ring. After each round a fixed watch
// list of planted and clean keys is answered watchPasses times through
// Aggregator.PointQueryMulti: the first pass refreshes the span's point
// state, the rest are warm. No recovery runs at all.
const (
	watchN       = pullN
	watchDepth   = 7 // the depth of EXPERIMENTS.md's point-query figures
	watchM       = watchDepth * 512
	watchWindows = 4
	watchPlanted = 8
	watchClean   = 56
	watchPasses  = 256
	// watchDead is the dead zone around the threshold, as a share of
	// it: a key whose exact deviation lies this close to the threshold
	// may be flagged either way.
	watchDead = 0.1
)

// watchGen draws one round's global delta: a mode near base (itself
// near csgen's 1800) on every key and every planted key off it by
// weight·base·c, with one c in 0.75..1.25 per round. The weights run from 0.25 to 4.3, so with the
// threshold at the span's nominal mode some planted keys fall below it,
// some above and some in the dead zone.
type watchGen struct {
	rng     *rand.Rand
	base    float64
	planted []int
	weight  []float64
	watch   []int    // watch list: planted keys, then clean ones
	keys    []string // watch list key names
}

func newWatchGen(seed uint64) *watchGen {
	rng := newRNG(seed, 3)
	g := &watchGen{rng: rng, base: 1800 * (0.9 + 0.2*rng.Float64())}
	idx := pickDistinct(rng, watchN, watchPlanted+watchClean)
	g.planted = idx[:watchPlanted]
	for j := range g.planted {
		w := 0.25 * math.Pow(1.5, float64(j))
		if rng.IntN(2) == 0 {
			w = -w
		}
		g.weight = append(g.weight, w)
	}
	g.watch = idx
	for _, i := range idx {
		g.keys = append(g.keys, keyName(i))
	}
	return g
}

func (g *watchGen) round(vals [pushNodes][]float64) shadow {
	d := newShadow()
	d.mode = g.base * (0.95 + 0.1*g.rng.Float64())
	c := 0.75 + 0.5*g.rng.Float64()
	for j, i := range g.planted {
		d.dev[i] = g.weight[j] * g.base * c
	}
	splitNodes(g.rng, d, 2*g.base, vals[0], vals[1])
	return d
}

func runWatchlist(ctx context.Context, r *run) error {
	cfg := csoutlier.Config{M: watchM, Seed: consensusSeed, Ensemble: csoutlier.CountSketch, Depth: watchDepth}
	rig, err := buildPushRig(ctx, r, keyList(watchN), cfg, watchWindows, setupRunsSmall)
	if err != nil {
		return err
	}
	defer rig.close(ctx)
	gen := newWatchGen(r.seed)
	threshold := watchWindows * gen.base
	dead := watchDead * threshold
	var vals [pushNodes][]float64
	for i := range vals {
		vals[i] = make([]float64, watchN)
	}
	observe := func(n *stream.Node, node, chunk int) error {
		lo, hi := chunkKeys(watchN, chunk)
		for j := lo; j < hi; j++ {
			if err := n.Observe(rig.keys[j], vals[node][j]); err != nil {
				return err
			}
		}
		return nil
	}
	r.ingestObs = pushNodes * watchN
	wins := []shadow{newShadow()}

	tr := r.tr
	var queryDur time.Duration
	round := func(n int, measured bool) error {
		t := tr
		if !measured {
			t = nil
		}
		cycle := t.open("round", layerOther, -1, r.cycles, time.Now())
		d := gen.round(vals)
		rotate := n > 0
		if rotate {
			wins = rotateShadows(wins, watchWindows)
		}
		wins[0].add(d)

		ingest := t.open("ingest", layerOther, cycle, r.cycles, time.Now())
		ingestDur, err := rig.ingest(ctx, r, t, ingest, rotate, chunks(watchN), observe)
		if err != nil {
			return err
		}
		t.close(ingest, time.Now())

		if len(wins) < watchWindows {
			t.close(cycle, time.Now())
			return nil // warm-up: the ring does not cover the watch span yet
		}
		query := t.open("query", layerOther, cycle, r.cycles, time.Now())
		start := time.Now()
		first, qerr := rig.agg.PointQueryMulti(0, watchWindows-1, gen.keys, threshold)
		refreshed := time.Now()
		last := first
		for p := 1; p < watchPasses && qerr == nil; p++ {
			last, qerr = rig.agg.PointQueryMulti(0, watchWindows-1, gen.keys, threshold)
		}
		end := time.Now()
		t.add("point_refresh", layerStream, query, r.cycles, start, refreshed)
		t.add("point_warm", layerStream, query, r.cycles, refreshed, end)
		t.close(query, end)
		if measured {
			r.attempted++
			r.answers = append(r.answers, end.Sub(start))
			queryDur += end.Sub(start)
			r.ingests = append(r.ingests, ingestDur)
		}
		if qerr == nil {
			qerr = checkPoints(first, gen.watch, sumShadows(wins), threshold, dead)
		}
		if qerr == nil {
			for j := range last {
				if last[j] != first[j] {
					qerr = fmt.Errorf("warm pass answers key %s differently from the first pass", gen.keys[j])
					break
				}
			}
		}
		if qerr != nil {
			r.checked(measured, fmt.Errorf("round %d: %w", n, qerr))
		}
		t.close(cycle, time.Now())
		if measured {
			r.cycles++
		}
		return nil
	}

	// Warm-up: fill the ring so the watch span always covers
	// watchWindows rounds.
	st0, st, err := rig.measure(r, watchWindows, round)
	if err != nil {
		return err
	}
	if tr != nil {
		passes := float64(r.cycles * watchPasses)
		keys := passes * float64(len(gen.keys))
		nRefresh, refresh := tr.stats("point_refresh")
		_, warm := tr.stats("point_warm")
		r.layer["stream.point_refresh_us"] = ratio(float64(refresh.Nanoseconds())/1e3, float64(nRefresh))
		r.layer["stream.point_warm_ns_per_key"] = ratio(float64(warm.Nanoseconds()), (keys - float64(r.cycles*len(gen.keys))))
		r.layer["stream.point_refreshes_per_pass"] = ratio(float64(st.PointRefreshes-st0.PointRefreshes), passes)
		r.layer["stream.point_keys_per_s"] = ratio(keys, queryDur.Seconds())
	}
	return nil
}
