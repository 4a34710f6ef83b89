package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"csoutlier"
	"csoutlier/internal/obs"
	"csoutlier/internal/stream"
)

const (
	// pushNodes is the number of stream.Nodes of a push workload; each
	// observes and flushes on its own load goroutine.
	pushNodes = 2
	// pushChunk is how many keys a node observes per frame: csnode's
	// default -push-chunk.
	pushChunk = 256
)

// chunks is the number of frames a node ships to observe n keys.
func chunks(n int) int { return (n + pushChunk - 1) / pushChunk }

// chunkKeys is the key index range [lo, hi) of frame c over n keys.
func chunkKeys(n, c int) (lo, hi int) { return c * pushChunk, min((c+1)*pushChunk, n) }

// pushRig is everything a push workload builds: the Sketcher, the
// aggregator on a loopback listener and the dialed nodes.
type pushRig struct {
	keys   []string
	sk     *csoutlier.Sketcher
	reg    *obs.Registry
	agg    *stream.Aggregator
	nodes  []*stream.Node
	served sync.WaitGroup
}

func newPushRig(ctx context.Context, keys []string, cfg csoutlier.Config, windows int, wire *atomic.Int64) (*pushRig, error) {
	r := &pushRig{keys: keys, reg: obs.NewRegistry()}
	var err error
	if r.sk, err = csoutlier.NewSketcher(keys, cfg); err != nil {
		return nil, err
	}
	r.sk.Instrument(r.reg)
	if r.agg, err = stream.NewAggregator(r.sk, stream.AggregatorOptions{Windows: windows, Metrics: r.reg}); err != nil {
		return nil, err
	}
	ln, err := listen(wire)
	if err != nil {
		r.agg.Close(ctx)
		return nil, err
	}
	r.served.Add(1)
	go func() {
		defer r.served.Done()
		r.agg.Serve(ln) // returns once the aggregator closes the listener
	}()
	for i := 0; i < pushNodes; i++ {
		n, err := stream.Dial(ctx, ln.Addr().String(), r.sk, fmt.Sprintf("dc%d", i), stream.NodeOptions{})
		if err != nil {
			r.close(ctx)
			return nil, err
		}
		r.nodes = append(r.nodes, n)
	}
	return r, nil
}

func (r *pushRig) close(ctx context.Context) error {
	var first error
	for _, n := range r.nodes {
		if err := n.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	if err := r.agg.Close(ctx); err != nil && first == nil {
		first = err
	}
	r.served.Wait()
	return first
}

// buildPushRig builds the rig builds times, timing each build, and
// keeps the last one.
func buildPushRig(ctx context.Context, r *run, keys []string, cfg csoutlier.Config, windows, builds int) (*pushRig, error) {
	var rig *pushRig
	for i := 0; i < builds; i++ {
		if rig != nil {
			if err := rig.close(ctx); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if rig, err = newPushRig(ctx, keys, cfg, windows, &r.wire); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(start))
	}
	return rig, nil
}

// ingest runs one ingest phase and returns its wall time. An optional
// window rotation comes first (after which every node re-syncs its
// window view, so the round's frames land in the new window); it is
// traced but not part of the phase, so every phase is the same work.
// Then every node, on its own goroutine, observes its chunks in order,
// flushing after each. The phase ends when every flush is acked, i.e.
// folded.
func (r *pushRig) ingest(ctx context.Context, run *run, tr *tracer, parent int, rotate bool, chunks int, observe func(n *stream.Node, node, chunk int) error) (time.Duration, error) {
	round := run.cycles
	defer run.memWatch(tr)()
	if rotate {
		s := time.Now()
		r.agg.Rotate()
		tr.add("rotate", layerStream, parent, round, s, time.Now())
		for _, n := range r.nodes {
			s := time.Now()
			if err := n.Sync(ctx); err != nil {
				return 0, err
			}
			tr.add("sync", layerStream, parent, round, s, time.Now())
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(r.nodes))
	for i, n := range r.nodes {
		wg.Add(1)
		go func(i int, n *stream.Node) {
			defer wg.Done()
			for c := 0; c < chunks; c++ {
				s := time.Now()
				if err := observe(n, i, c); err != nil {
					errs[i] = err
					return
				}
				f := time.Now()
				if err := n.Flush(ctx); err != nil {
					errs[i] = err
					return
				}
				tr.add("observe", layerSensing, parent, round, s, f)
				tr.add("flush", layerStream, parent, round, f, time.Now())
			}
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// conserved checks the fold books after a run: every frame the nodes
// captured was applied exactly once, with nothing duplicated, dropped
// or rejected.
func (r *pushRig) conserved() error {
	var captured int64
	for _, n := range r.nodes {
		captured += n.Stats().Captured
	}
	st := r.agg.Stats()
	if st.Applied != captured || st.Duplicates != 0 || st.Dropped != 0 || st.Rejected != 0 {
		return fmt.Errorf("fold books: %d frames captured, aggregator applied %d, duplicates %d, dropped %d, rejected %d",
			captured, st.Applied, st.Duplicates, st.Dropped, st.Rejected)
	}
	return nil
}

// measure runs warm untimed rounds, then whole measured rounds until the
// run's time is up, and books what both push workloads report: frames
// shipped, the live heap, the fold books and, in the traced run, the
// ingest layers. It returns the aggregator's counters before and after
// the measured rounds.
func (r *pushRig) measure(run *run, warm int, round func(n int, measured bool) error) (st0, st stream.AggStats, err error) {
	n := 0
	for ; n < warm; n++ {
		if err := round(n, false); err != nil {
			return st0, st, err
		}
	}
	st0 = r.agg.Stats()
	run.wire.Store(0)
	fold0 := readObs(r.reg)
	start := time.Now()
	for ; run.cycles == 0 || !run.deadline(start); n++ {
		if err := round(n, true); err != nil {
			return st0, st, err
		}
	}
	run.loopDur = time.Since(start)
	st = r.agg.Stats()
	run.sketches = st.Applied - st0.Applied
	run.heapMB = heapMB()
	if err := r.conserved(); err != nil {
		run.invalid(err)
	}
	if tr := run.tr; tr != nil {
		fold := readObs(r.reg).sub(fold0)
		_, observe := tr.stats("observe")
		nFlush, flush := tr.stats("flush")
		run.layer["sensing.observe_ns"] = ratio(float64(observe.Nanoseconds()), float64(run.ingestObs*int64(len(run.ingests))))
		run.layer["stream.flush_us"] = ratio(float64(flush.Nanoseconds())/1e3, float64(nFlush))
		run.layer["stream.fold_us"] = ratio(1e6*fold["stream_fold_seconds.sum"], fold["stream_fold_seconds.count"])
		run.layer["stream.frames_per_round"] = ratio(float64(run.sketches), float64(run.cycles))
	}
	return st0, st, nil
}
