package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"csoutlier"
	"csoutlier/internal/cluster"
	"csoutlier/internal/linalg"
	"csoutlier/internal/obs"
	"csoutlier/internal/sensing"
)

// oneshot: the paper's pull path. Two cluster.LocalNode servers hold a
// zero-sum-noise split of a majority-dominated key vector; every
// operation is a Sketcher.DetectCluster call, i.e. node-side
// measurement with the regenerating Seeded Φ (M·N is above the nodes'
// dense limit), one collection round over TCP, and a cold BOMP solve.
// No stream layer and no cache is involved. The sizes are the paper's
// production query (N, s) at the M where BOMP's error reaches zero in
// EXPERIMENTS.md, with csagg's default k; see README.md for sources.
const (
	pullN     = 10400 // the paper's production key space
	pullM     = 520   // 5 % of N
	pullS     = 45    // planted outliers: the paper's core-search sparsity
	pullK     = 10    // csagg's default k
	pullIters = pullS + 3

	// Every round of opsPerRound operations ends with one count-sketch
	// probe, so the probe is a fixed share of the attempts.
	opsPerRound = 10

	// The probe: a DetectCluster with a CountSketch Sketcher over its
	// own pair of nodes. Sketcher.spec() has no CountSketch case, so the
	// nodes measure with the Gaussian Φ and the call returns a wrong
	// answer without an error. Its inputs are fixed, not drawn from
	// --seed, so it fails the same way in every run.
	probeSeed = 20150531
	probeN    = 2000
	probeM    = 400
	probeS    = 8
	probeK    = 4
)

// pullData is one pull dataset: the exact aggregate and the two node
// slices that sum to it.
type pullData struct {
	exact  shadow
	slices [2][]float64
}

// genPull draws a majority-dominated aggregate over n keys with s
// planted outliers and splits it across two nodes, in csgen's default
// make-up: a mode near 1800, planted magnitudes uniform in
// [mode/4, 5·mode] with a random sign, and zero-sum node noise of
// amplitude 2·mode.
func genPull(seed uint64, n, s int) pullData {
	rng := newRNG(seed, 1)
	d := newShadow()
	d.mode = 1800 * (0.9 + 0.2*rng.Float64())
	for _, i := range pickDistinct(rng, n, s) {
		mag := d.mode * (0.25 + 4.75*rng.Float64())
		if rng.IntN(2) == 0 {
			mag = -mag
		}
		d.dev[i] = mag
	}
	pd := pullData{exact: d}
	pd.slices[0], pd.slices[1] = make([]float64, n), make([]float64, n)
	splitNodes(rng, d, 2*d.mode, pd.slices[0], pd.slices[1])
	return pd
}

// timedNode is the NodeAPI handed to cluster.Serve: a LocalNode whose
// Sketch calls are timed from outside.
type timedNode struct {
	*cluster.LocalNode
	mu    sync.Mutex
	calls [][2]time.Time
}

func (n *timedNode) Sketch(ctx context.Context, spec sensing.Spec) (linalg.Vector, error) {
	start := time.Now()
	v, err := n.LocalNode.Sketch(ctx, spec)
	end := time.Now()
	n.mu.Lock()
	n.calls = append(n.calls, [2]time.Time{start, end})
	n.mu.Unlock()
	return v, err
}

// take returns and clears the Sketch calls timed since the last take.
func (n *timedNode) take() [][2]time.Time {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.calls
	n.calls = nil
	return c
}

// pullRig is everything oneshot builds: the two Sketchers, four node
// servers (two answer nodes, two probe nodes) and their registries.
type pullRig struct {
	sk, probeSk   *csoutlier.Sketcher
	reg, probeReg *obs.Registry
	nodes         []*timedNode
	addrs         []string // answer nodes
	probeAddrs    []string
	lns           []net.Listener
	served        sync.WaitGroup
}

func newPullRig(data, probe pullData, wire *atomic.Int64) (*pullRig, error) {
	r := &pullRig{reg: obs.NewRegistry(), probeReg: obs.NewRegistry()}
	var err error
	if r.sk, err = csoutlier.NewSketcher(keyList(pullN), csoutlier.Config{M: pullM, Seed: consensusSeed, MaxIterations: pullIters}); err != nil {
		return nil, err
	}
	r.sk.Instrument(r.reg)
	if r.probeSk, err = csoutlier.NewSketcher(keyList(probeN), csoutlier.Config{M: probeM, Seed: consensusSeed, Ensemble: csoutlier.CountSketch}); err != nil {
		return nil, err
	}
	r.probeSk.Instrument(r.probeReg)
	serve := func(name string, x []float64) (string, error) {
		ln, err := listen(wire)
		if err != nil {
			return "", err
		}
		node := &timedNode{LocalNode: cluster.NewLocalNode(name, x)}
		r.nodes = append(r.nodes, node)
		r.lns = append(r.lns, ln)
		r.served.Add(1)
		go func() {
			defer r.served.Done()
			cluster.Serve(ln, node) // returns once close shuts the listener
		}()
		return ln.Addr().String(), nil
	}
	for i, x := range data.slices {
		addr, err := serve(fmt.Sprintf("dc%d", i), x)
		if err != nil {
			r.close()
			return nil, err
		}
		r.addrs = append(r.addrs, addr)
	}
	for i, x := range probe.slices {
		addr, err := serve(fmt.Sprintf("probe%d", i), x)
		if err != nil {
			r.close()
			return nil, err
		}
		r.probeAddrs = append(r.probeAddrs, addr)
	}
	return r, nil
}

func (r *pullRig) close() {
	for _, ln := range r.lns {
		ln.Close()
	}
	r.served.Wait()
}

func runOneshot(ctx context.Context, r *run) error {
	data := genPull(r.seed, pullN, pullS)
	probe := genPull(probeSeed, probeN, probeS)
	var rig *pullRig
	for i := 0; i < setupRuns; i++ {
		if rig != nil {
			rig.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if rig, err = newPullRig(data, probe, &r.wire); err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(start))
	}
	defer rig.close()
	opts := csoutlier.ClusterOptions{BackoffSeed: r.seed}

	// One untimed round lets lazy state (pools, column caches, the
	// first connections' gob type exchange) settle before measuring.
	if _, err := rig.sk.DetectCluster(ctx, rig.addrs, pullK, opts); err != nil {
		return err
	}
	if _, err := rig.probeSk.DetectCluster(ctx, rig.probeAddrs, probeK, opts); err != nil {
		return err
	}
	for _, n := range rig.nodes {
		n.take()
	}

	tr := r.tr
	r.ingestObs = pullN * int64(len(rig.addrs))
	r.wire.Store(0)
	var (
		acc          = obsSnap{}
		nodeSketch   time.Duration
		nodeSketches int
		rtt          time.Duration
		rtts         int
		clusterBytes int64
	)
	loopStart := time.Now()
	for round := 0; round == 0 || !r.deadline(loopStart); round++ {
		for op := 0; op < opsPerRound; op++ {
			isProbe := op == opsPerRound-1
			sk, addrs, k, exact, reg, nodes := rig.sk, rig.addrs, pullK, data.exact, rig.reg, rig.nodes[:2]
			if isProbe {
				sk, addrs, k, exact, reg, nodes = rig.probeSk, rig.probeAddrs, probeK, probe.exact, rig.probeReg, rig.nodes[2:]
			}
			var before obsSnap
			if tr != nil {
				before = readObs(reg)
			}
			memDone := r.memWatch(tr)
			cycleStart := time.Now()
			rep, err := sk.DetectCluster(ctx, addrs, k, opts)
			end := time.Now()
			r.attempted++
			r.sketches += int64(len(addrs))
			if err == nil && len(rep.Included) != len(addrs) {
				err = fmt.Errorf("answer covers %d of %d nodes", len(rep.Included), len(addrs))
			}
			if err == nil {
				err = checkTopK(&rep.Report, exact, k)
			}
			if err != nil {
				r.fail(isProbe, fmt.Errorf("op %d (probe %v): %w", r.attempted, isProbe, err))
			}
			var calls [][2]time.Time
			for _, n := range nodes {
				calls = append(calls, n.take()...)
			}
			if !isProbe {
				r.answers = append(r.answers, end.Sub(cycleStart))
				last := cycleStart
				for _, c := range calls {
					if c[1].After(last) {
						last = c[1]
					}
				}
				r.ingests = append(r.ingests, last.Sub(cycleStart))
			}
			if tr != nil {
				delta := readObs(reg).sub(before)
				memDone()
				cycleEnd := time.Now()
				cycle := tr.add("op", layerOther, -1, r.cycles, cycleStart, cycleEnd)
				name := "answer"
				if isProbe {
					name = "probe"
				}
				ans := tr.add(name, layerCluster, cycle, r.cycles, cycleStart, end)
				tr.setInner(ans, layerRecovery, time.Duration(delta["recovery_detect_seconds.sum"]*1e9))
				for _, c := range calls {
					tr.add(name+"_node_sketch", layerSensing, ans, r.cycles, c[0], c[1])
				}
				if !isProbe {
					delta.addTo(acc)
					for _, c := range calls {
						nodeSketch += c[1].Sub(c[0])
						nodeSketches++
					}
					if rep != nil {
						for _, nr := range rep.Nodes {
							rtt += nr.RTT
							rtts++
						}
						clusterBytes += rep.Stats.Bytes
					}
				}
			}
			r.cycles++
		}
	}
	r.loopDur = time.Since(loopStart)
	r.heapMB = heapMB()

	if tr != nil {
		answers := float64(len(r.answers))
		r.layer["sensing.node_sketch_ms"] = ratio(ms(nodeSketch), float64(nodeSketches))
		r.layer["cluster.rtt_ms"] = ratio(ms(rtt), float64(rtts))
		r.layer["cluster.bytes_per_answer"] = ratio(float64(clusterBytes), answers)
		r.layer["recovery.detect_ms"] = ratio(1e3*acc["recovery_detect_seconds.sum"], acc["recovery_detect_seconds.count"])
		r.layer["recovery.iters_per_answer"] = ratio(acc["recovery_detect_iterations.sum"], answers)
		for _, v := range obsSolvers {
			r.layer["recovery.picks."+v] = acc["picks."+v] / answers
		}
	}
	return nil
}
