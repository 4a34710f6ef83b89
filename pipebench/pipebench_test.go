package main

import (
	"math"
	"testing"
	"time"

	"csoutlier"
)

// TestSmoke runs every workload briefly, untraced and traced, with all
// checks on: every answer must be correct, every metric present and
// finite, and the only failures oneshot's count-sketch probes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload over loopback TCP")
	}
	for _, w := range []string{"oneshot", "dashboard", "watchlist"} {
		for _, traced := range []bool{false, true} {
			res, err := execute(w, 7, 0.3, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d", w, traced, res.Correct, res.Attempted)
			}
			wantFailed := int64(0)
			if w == "oneshot" {
				wantFailed = res.Attempted / opsPerRound
				if res.Attempted%opsPerRound != 0 {
					t.Errorf("oneshot attempted %d, not whole rounds of %d", res.Attempted, opsPerRound)
				}
			}
			if res.Failed != wantFailed {
				t.Errorf("%s traced=%v: failed %d of %d, want %d", w, traced, res.Failed, res.Attempted, wantFailed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit || math.IsNaN(got.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v", w, traced, m.name, got)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, got.Value)
				}
			}
			// self.other_ms is the remainder of the traced cycle time, so
			// the self times add up by construction; a negative remainder
			// would mean the layer spans claim more than the wall time.
			// TestSelfTimes checks the attribution itself.
			if traced && res.Metrics["self.other_ms"].Value < 0 {
				t.Errorf("%s: negative remainder %v", w, res.Metrics["self.other_ms"].Value)
			}
		}
	}
}

// TestCheckersReject shows the checks are not vacuous: a correct answer
// passes, and a perturbed report, a wrong mode and a flipped point flag
// are each rejected.
func TestCheckersReject(t *testing.T) {
	exact := newShadow()
	exact.mode = 100
	exact.dev = map[int]float64{3: 500, 7: -400, 11: 300, 20: 200}
	good := func() *csoutlier.Report {
		return &csoutlier.Report{Mode: 100, Outliers: []csoutlier.Outlier{
			{Key: keyName(3), Value: 600}, {Key: keyName(7), Value: -300}, {Key: keyName(11), Value: 400},
		}}
	}
	if err := checkTopK(good(), exact, 3); err != nil {
		t.Fatalf("correct report rejected: %v", err)
	}
	swapped := good()
	swapped.Outliers[2].Key = keyName(20) // the 4th outlier in place of the 3rd
	if checkTopK(swapped, exact, 3) == nil {
		t.Error("report with a key outside the exact top-k accepted")
	}
	clean := good()
	clean.Outliers[1].Key = keyName(999)
	if checkTopK(clean, exact, 3) == nil {
		t.Error("report with a clean key accepted")
	}
	short := good()
	short.Outliers = short.Outliers[:2]
	if checkTopK(short, exact, 3) == nil {
		t.Error("report with too few outliers accepted")
	}
	dup := good()
	dup.Outliers[1].Key = keyName(3)
	if checkTopK(dup, exact, 3) == nil {
		t.Error("report with a duplicated key accepted")
	}
	valued := good()
	valued.Outliers[1].Value = -299 // right key, wrong magnitude
	if checkTopK(valued, exact, 3) == nil {
		t.Error("report with a wrong value accepted")
	}
	unordered := good()
	unordered.Outliers[0], unordered.Outliers[1] = unordered.Outliers[1], unordered.Outliers[0]
	if checkTopK(unordered, exact, 3) == nil {
		t.Error("report not furthest-from-mode first accepted")
	}
	moded := good()
	moded.Mode = 100.5
	if checkTopK(moded, exact, 3) == nil {
		t.Error("report with a wrong mode accepted")
	}

	keys := []int{3, 20, 999}
	threshold, dead := 250.0, 25.0
	ans := []csoutlier.PointAnswer{
		{Mode: 100, Outlier: true},  // |dev| 500
		{Mode: 100, Outlier: false}, // |dev| 200
		{Mode: 100, Outlier: false}, // clean
	}
	if err := checkPoints(ans, keys, exact, threshold, dead); err != nil {
		t.Fatalf("correct point answers rejected: %v", err)
	}
	for j := range ans {
		flipped := append([]csoutlier.PointAnswer(nil), ans...)
		flipped[j].Outlier = !flipped[j].Outlier
		if checkPoints(flipped, keys, exact, threshold, dead) == nil {
			t.Errorf("flipped flag on key %d accepted", keys[j])
		}
	}
	// Inside the dead zone either flag is accepted.
	if err := checkPoints(ans[1:2], keys[1:2], exact, 210, dead); err != nil {
		t.Errorf("flag inside the dead zone rejected: %v", err)
	}
	wrongMode := append([]csoutlier.PointAnswer(nil), ans...)
	wrongMode[2].Mode = 101
	if checkPoints(wrongMode, keys, exact, threshold, dead) == nil {
		t.Error("point answers with a wrong mode accepted")
	}
}

// TestSelfTimes checks the span attribution on a synthetic trace: a
// cycle whose child calls nest, run on two goroutines at once, and
// carry time in an inner layer.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(true)
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	// 0–100 ms: a cycle (other). 10–50: a stream call with 30 ms of
	// recovery inside it. 20–30: a sensing call nested in it. 60–80 and
	// 70–90: two sensing calls on two goroutines, overlapping 70–80.
	cycle := tr.add("cycle", layerOther, -1, 0, at(0), at(100))
	call := tr.add("call", layerStream, cycle, 0, at(10), at(50))
	tr.setInner(call, layerRecovery, 30*time.Millisecond)
	tr.add("nested", layerSensing, call, 0, at(20), at(30))
	tr.add("a", layerSensing, cycle, 0, at(60), at(80))
	tr.add("b", layerSensing, cycle, 0, at(70), at(90))
	got := tr.selfTimes()
	want := map[string]time.Duration{
		layerOther:    30 * time.Millisecond, // 0–10, 50–60, 90–100
		layerStream:   0,                     // its 30 ms of self time all moved to recovery
		layerRecovery: 30 * time.Millisecond,
		layerSensing:  40 * time.Millisecond, // 10 nested + 60–90 once, not 40
	}
	var sum time.Duration
	for _, l := range layers {
		if d := got[l] - want[l]; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("layer %s: self time %v, want %v", l, got[l], want[l])
		}
		sum += got[l]
	}
	if d := sum - 100*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("self times sum to %v, want the 100 ms the spans cover", sum)
	}
}

// TestProbeRegimeSolvable shows that oneshot's count-sketch probe fails
// for the program fault it names, not because its inputs are beyond
// the sketch: the same CountSketch Sketcher, sketching the probe's
// aggregate in process, recovers the exact answer.
func TestProbeRegimeSolvable(t *testing.T) {
	probe := genPull(probeSeed, probeN, probeS)
	sk, err := csoutlier.NewSketcher(keyList(probeN), csoutlier.Config{M: probeM, Seed: consensusSeed, Ensemble: csoutlier.CountSketch})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, probeN)
	for i := range x {
		x[i] = probe.slices[0][i] + probe.slices[1][i]
	}
	y, err := sk.SketchVector(x)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sk.Detect(y, probeK)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTopK(rep, probe.exact, probeK); err != nil {
		t.Fatalf("in-process count-sketch answer is wrong, so the probe's regime is not solvable: %v", err)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
