package main

import (
	"math"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"csoutlier/internal/obs"
)

// countingListener counts every byte read and written on the
// connections it accepts: the loopback traffic behind one server.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// listen opens a loopback listener whose traffic adds to n.
func listen(n *atomic.Int64) (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: ln, n: n}, nil
}

// obsCounters and obsHistograms are the program's obs series the traced run reads at
// phase boundaries. Histograms contribute their sum and count.
var obsCounters = []string{
	"recovery_batch_live_iterations_total",
	"recovery_batch_scripted_iterations_total",
	"recovery_batch_divergences_total",
}

var obsHistograms = []string{
	"recovery_detect_seconds",
	"recovery_detect_iterations",
	"recovery_batch_seconds",
	"stream_fold_seconds",
}

var obsSolvers = []string{"bomp", "aiht", "dantzig"}

// obsSnap is one reading of the series above.
type obsSnap map[string]float64

// readObs reads the series from the program's registry. Registering an
// existing family name returns the live family, so these calls read the
// program's own series; help text and buckets are ignored for a family
// that already exists.
func readObs(reg *obs.Registry) obsSnap {
	s := make(obsSnap, 16)
	for _, n := range obsCounters {
		s[n] = float64(reg.Counter(n, "").Value())
	}
	for _, n := range obsHistograms {
		h := reg.Histogram(n, "", nil)
		s[n+".sum"] = h.Sum()
		s[n+".count"] = float64(h.Count())
	}
	picks := reg.CounterVec("recovery_solver_picks_total", "", "solver")
	for _, v := range obsSolvers {
		s["picks."+v] = float64(picks.With(v).Value())
	}
	return s
}

// sub returns the per-series delta s − o.
func (s obsSnap) sub(o obsSnap) obsSnap {
	d := make(obsSnap, len(s))
	for k, v := range s {
		d[k] = v - o[k]
	}
	return d
}

func (s obsSnap) addTo(acc obsSnap) {
	for k, v := range s {
		acc[k] += v
	}
}

// memSnap reads the Go runtime's allocation and GC-pause totals.
func memSnap() (alloc uint64, pause uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.PauseTotalNs
}

// heapMB forces two collections, the second one after sync.Pool caches
// have moved to their victim caches and been dropped, and returns the
// live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile returns the q-quantile of ds (linear interpolation between
// closest ranks), in milliseconds.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return v[len(v)-1]
	}
	f := pos - float64(lo)
	return v[lo]*(1-f) + v[lo+1]*f
}

// quartiles is Python's statistics.quantiles(values, n=4) with its
// default exclusive method, so the figures match the ones the bounds in
// BENCHMARK.json are judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0: a per-layer figure of a layer the
// run never reached.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
