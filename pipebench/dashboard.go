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

// dashboard: the live span path. Two Gaussian push nodes observe every
// key each round, one Node.Observe at a time, and flush every pushChunk
// keys; the aggregator rotates every dashRoundsPerWindow rounds. After
// each round the standing set of span top-k queries is refreshed: the
// first span misses the recovery cache and batches the other, stale,
// standing spans warm into the same pass, so every answer is one
// refresh of the whole set. Each round's global delta is
// majority-dominated (every key at the round's mode, the planted keys
// off it), so every span, the open window included, has an exact
// answer. N, M and s are oneshot's, the ring and k csstreamd's defaults.
const (
	dashN               = pullN
	dashM               = pullM
	dashWindows         = 8 // csstreamd's default -windows
	dashRoundsPerWindow = 2
	dashPlanted         = pullS
	dashK               = 10 // csstreamd's default -k
	dashIters           = dashPlanted + 3
)

// dashSpans are the standing queries, as window-age ranges (0 = open).
var dashSpans = [][2]int{{0, 0}, {0, 1}, {0, 3}, {2, 5}, {0, 7}}

// dashGen draws one round's global delta: the round's mode (near
// csgen's 1800) on every key, and every planted key off it by its own
// fixed weight times the mode, with a ±3 % jitter per round. The
// weights span csgen's magnitudes, 1/4 to 5 times the mode, in steps of
// 7 % with a random sign, so the planted keys keep their order from
// round to round, as on a live dashboard, and the recovery engine's
// warm starts stay valid, while span totals stay sparse.
type dashGen struct {
	rng     *rand.Rand
	base    float64
	planted []int
	weight  []float64
}

func newDashGen(seed uint64) *dashGen {
	rng := newRNG(seed, 2)
	g := &dashGen{rng: rng, base: 1800 * (0.9 + 0.2*rng.Float64()), planted: pickDistinct(rng, dashN, dashPlanted)}
	for j := range g.planted {
		w := 0.25 * math.Pow(20, float64(j)/float64(dashPlanted-1))
		if rng.IntN(2) == 0 {
			w = -w
		}
		g.weight = append(g.weight, w)
	}
	return g
}

func (g *dashGen) round(vals [pushNodes][]float64) shadow {
	d := newShadow()
	d.mode = g.base * (0.9 + 0.2*g.rng.Float64())
	for j, i := range g.planted {
		d.dev[i] = g.weight[j] * d.mode * (0.97 + 0.06*g.rng.Float64())
	}
	splitNodes(g.rng, d, 2*g.base, vals[0], vals[1])
	return d
}

func runDashboard(ctx context.Context, r *run) error {
	cfg := csoutlier.Config{M: dashM, Seed: consensusSeed, MaxIterations: dashIters}
	rig, err := buildPushRig(ctx, r, keyList(dashN), cfg, dashWindows, setupRuns)
	if err != nil {
		return err
	}
	defer rig.close(ctx)
	gen := newDashGen(r.seed)
	var vals [pushNodes][]float64
	for i := range vals {
		vals[i] = make([]float64, dashN)
	}
	// Each node folds every key one Node.Observe at a time: the
	// per-observation column gather is the sensing load here.
	observe := func(n *stream.Node, node, chunk int) error {
		lo, hi := chunkKeys(dashN, chunk)
		for j := lo; j < hi; j++ {
			if err := n.Observe(rig.keys[j], vals[node][j]); err != nil {
				return err
			}
		}
		return nil
	}
	r.ingestObs = pushNodes * dashN
	wins := []shadow{newShadow()} // wins[age] mirrors the aggregator's window ring
	reports := make([]*csoutlier.Report, len(dashSpans))

	tr := r.tr
	acc := obsSnap{}
	// round runs one ingest phase and one refresh of the standing set;
	// only measured rounds are timed, traced and counted.
	round := func(n int, measured bool) error {
		t := tr
		if !measured {
			t = nil
		}
		cycle := t.open("round", layerOther, -1, r.cycles, time.Now())
		d := gen.round(vals)
		rotate := n > 0 && n%dashRoundsPerWindow == 0
		if rotate {
			wins = rotateShadows(wins, dashWindows)
		}
		wins[0].add(d)

		ingest := t.open("ingest", layerOther, cycle, r.cycles, time.Now())
		ingestDur, err := rig.ingest(ctx, r, t, ingest, rotate, chunks(dashN), observe)
		if err != nil {
			return err
		}
		t.close(ingest, time.Now())
		var before obsSnap
		if t != nil {
			before = readObs(rig.reg)
		}
		query := t.open("query", layerOther, cycle, r.cycles, time.Now())
		queryStart := time.Now()
		var qerr error
		for i, sp := range dashSpans {
			if sp[1] >= len(wins) {
				continue // warm-up: the ring does not reach this span yet
			}
			s := time.Now()
			reports[i], qerr = rig.agg.Outliers(sp[0], sp[1], dashK)
			if qerr != nil {
				break
			}
			if t != nil {
				id := t.add("outliers", layerStream, query, r.cycles, s, time.Now())
				after := readObs(rig.reg)
				delta := after.sub(before)
				t.setInner(id, layerRecovery, time.Duration(1e9*delta["recovery_batch_seconds.sum"]))
				delta.addTo(acc)
				before = after
			}
		}
		queryEnd := time.Now()
		if t != nil {
			for _, sp := range dashSpans {
				s := time.Now()
				if _, err := rig.agg.RangeSketch(sp[0], sp[1]); err != nil {
					return err
				}
				t.add("range", layerStream, query, r.cycles, s, time.Now())
			}
		}
		t.close(query, time.Now())
		if measured {
			r.attempted++
			r.answers = append(r.answers, queryEnd.Sub(queryStart))
			r.ingests = append(r.ingests, ingestDur)
		}
		if qerr == nil {
			for i, sp := range dashSpans {
				if sp[1] >= len(wins) {
					continue
				}
				if qerr = checkTopK(reports[i], sumShadows(wins[sp[0]:sp[1]+1]), dashK); qerr != nil {
					qerr = fmt.Errorf("span %v: %w", sp, qerr)
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

	// Warm-up: fill the ring, so every span resolves, and ask every span
	// twice, so the whole set is standing, before anything is timed.
	st0, st, err := rig.measure(r, dashWindows*dashRoundsPerWindow+1, round)
	if err != nil {
		return err
	}
	if tr != nil {
		answers := float64(len(r.answers))
		r.layer["recovery.batch_ms"] = ratio(1e3*acc["recovery_batch_seconds.sum"], answers)
		r.layer["recovery.iters_per_answer"] = ratio(acc["recovery_detect_iterations.sum"], answers)
		r.layer["recovery.live_iters_per_answer"] = ratio(acc["recovery_batch_live_iterations_total"], answers)
		r.layer["recovery.scripted_iters_per_answer"] = ratio(acc["recovery_batch_scripted_iterations_total"], answers)
		r.layer["recovery.divergences_per_answer"] = ratio(acc["recovery_batch_divergences_total"], answers)
		for _, v := range obsSolvers {
			r.layer["recovery.picks."+v] = acc["picks."+v] / answers
		}
		nRange, rangeTotal := tr.stats("range")
		r.layer["stream.range_us"] = ratio(float64(rangeTotal.Nanoseconds())/1e3, float64(nRange))
		r.layer["stream.cache_hits_per_answer"] = ratio(float64(st.CacheHits-st0.CacheHits), answers)
		r.layer["stream.warm_starts_per_answer"] = ratio(float64(st.WarmStarts-st0.WarmStarts), answers)
		r.layer["stream.batch_refreshes_per_answer"] = ratio(float64(st.BatchRefreshes-st0.BatchRefreshes), answers)
	}
	return nil
}
