package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"csoutlier"
)

// relTol bounds the distance between a recovered value and the exact
// shadow value, relative to the aggregate's scale. Exact recovery on
// these inputs lands within ~1e-9; anything past 1e-6 is a wrong answer.
const relTol = 1e-6

// keyIndex parses a benchmark key name back to its index.
func keyIndex(key string) (int, error) {
	if !strings.HasPrefix(key, "k") {
		return 0, fmt.Errorf("key %q is not a benchmark key", key)
	}
	return strconv.Atoi(key[1:])
}

// checkTopK checks a span top-k report against the exact shadow: the
// mode must match, the report must hold min(k, support) distinct keys,
// every reported key must be at least as far from the mode as the exact
// k-th outlier (within tolerance, so exact ties may swap), every
// reported value must equal the key's exact value, and the keys must
// come furthest-from-mode first.
func checkTopK(rep *csoutlier.Report, exact shadow, k int) error {
	tol := relTol * exact.scale()
	if math.Abs(rep.Mode-exact.mode) > tol {
		return fmt.Errorf("mode %.9g, exact %.9g", rep.Mode, exact.mode)
	}
	ranked := exact.ranked()
	want := min(k, len(ranked))
	if len(rep.Outliers) != want {
		return fmt.Errorf("%d outliers reported, exact top-%d has %d", len(rep.Outliers), k, want)
	}
	if want == 0 {
		return nil
	}
	kth := math.Abs(ranked[want-1].dev)
	seen := make(map[int]bool, want)
	prev := math.Inf(1)
	for _, o := range rep.Outliers {
		i, err := keyIndex(o.Key)
		if err != nil {
			return err
		}
		if seen[i] {
			return fmt.Errorf("key %s reported twice", o.Key)
		}
		seen[i] = true
		if d := math.Abs(exact.dev[i]); d < kth-tol {
			return fmt.Errorf("key %s reported with |dev| %.6g, exact top-%d cut is %.6g", o.Key, d, k, kth)
		}
		if v := exact.mode + exact.dev[i]; math.Abs(o.Value-v) > tol {
			return fmt.Errorf("key %s reported at %.9g, exact %.9g", o.Key, o.Value, v)
		}
		d := math.Abs(o.Value - rep.Mode)
		if d > prev+tol {
			return fmt.Errorf("key %s (|dev| %.6g) follows a key with |dev| %.6g", o.Key, d, prev)
		}
		prev = d
	}
	return nil
}

// checkPoints checks one watch-list pass against the exact shadow: the
// shared mode must match, and each key's outlier flag must equal the
// exact flag (|dev| ≥ threshold) unless the exact |dev| lies within dead
// of the threshold.
func checkPoints(ans []csoutlier.PointAnswer, keys []int, exact shadow, threshold, dead float64) error {
	if len(ans) != len(keys) {
		return fmt.Errorf("%d answers for %d keys", len(ans), len(keys))
	}
	tol := relTol * exact.scale()
	for j, a := range ans {
		if math.Abs(a.Mode-exact.mode) > tol {
			return fmt.Errorf("mode %.9g, exact %.9g", a.Mode, exact.mode)
		}
		d := math.Abs(exact.dev[keys[j]])
		if math.Abs(d-threshold) <= dead {
			continue
		}
		if want := d >= threshold; a.Outlier != want {
			return fmt.Errorf("key %s flagged %v, exact |dev| %.6g vs threshold %.6g", keyName(keys[j]), a.Outlier, d, threshold)
		}
	}
	return nil
}
