// Package compress implements the workload-compression baselines the paper
// compares against in Sections 2 and 7.3:
//
//   - TopCost — the DB2 Design Advisor heuristic (Zilio et al., VLDB 2004,
//     [20]): keep queries in descending order of their current-configuration
//     cost until a fraction X of the total workload cost is retained.
//   - Cluster — the SQL workload-compression approach (Chaudhuri et al.,
//     SIGMOD 2002, [5]): cluster the workload under a distance function
//     modelling the maximum possible cost difference between two queries
//     across arbitrary configurations, and keep one weighted representative
//     per cluster.
//
// Both return a weighted sub-workload; neither offers any guarantee about
// the effect of compression on configuration selection — the gap the
// paper's primitive closes.
package compress

import (
	"sort"

	"physdes/internal/workload"
)

// Compressed is a weighted sub-workload: query IDs into the original
// workload and a weight per kept query so that weighted totals approximate
// the original workload's totals.
type Compressed struct {
	IDs     []int
	Weights []float64
	// DistanceComputations records the preprocessing effort (the
	// scalability axis of Section 7.3: [5] needs up to O(N²) of them).
	DistanceComputations int
}

// Size returns the number of retained queries.
func (c *Compressed) Size() int { return len(c.IDs) }

// TopCost keeps the most expensive queries (under the supplied
// current-configuration costs) until fraction x of total cost is retained.
// Every kept query gets weight 1 — the heuristic tunes the kept queries
// as-is, which is exactly why it fails when only a few templates contain
// the expensive queries (Section 7.3).
func TopCost(w *workload.Workload, costs []float64, x float64) *Compressed {
	if x <= 0 {
		return &Compressed{}
	}
	if x > 1 {
		x = 1
	}
	idx := make([]int, w.Size())
	var total float64
	for i := range idx {
		idx[i] = i
		total += costs[i]
	}
	sort.Slice(idx, func(a, b int) bool {
		if costs[idx[a]] != costs[idx[b]] {
			return costs[idx[a]] > costs[idx[b]]
		}
		return idx[a] < idx[b]
	})
	target := x * total
	var kept float64
	out := &Compressed{}
	for _, i := range idx {
		if kept >= target {
			break
		}
		out.IDs = append(out.IDs, i)
		out.Weights = append(out.Weights, 1)
		kept += costs[i]
	}
	return out
}

// Cluster compresses the workload to k weighted representatives with a
// Gonzalez-style k-center clustering under the [5]-flavoured distance:
// queries of different templates can diverge by the sum of their costs
// under arbitrary configurations, queries of one template by their cost
// difference. Each cluster is represented by its first-assigned center,
// weighted by the cluster's total cost over the center's cost, so weighted
// totals track the original workload.
func Cluster(w *workload.Workload, costs []float64, k int) *Compressed {
	n := w.Size()
	if k <= 0 {
		return &Compressed{}
	}
	if k > n {
		k = n
	}
	tmpl := w.Partition().Of
	dist := func(a, b int) float64 {
		if tmpl[a] != tmpl[b] {
			return costs[a] + costs[b]
		}
		d := costs[a] - costs[b]
		if d < 0 {
			return -d
		}
		return d
	}

	out := &Compressed{}
	// Seed with the most expensive query.
	first := 0
	for i := 1; i < n; i++ {
		if costs[i] > costs[first] {
			first = i
		}
	}
	centers := []int{first}
	assign := make([]int, n)
	minDist := make([]float64, n)
	for i := 0; i < n; i++ {
		minDist[i] = dist(i, first)
		out.DistanceComputations++
	}
	for len(centers) < k {
		far := 0
		for i := 1; i < n; i++ {
			if minDist[i] > minDist[far] {
				far = i
			}
		}
		if minDist[far] == 0 {
			break // all queries identical to some center
		}
		c := len(centers)
		centers = append(centers, far)
		for i := 0; i < n; i++ {
			d := dist(i, far)
			out.DistanceComputations++
			if d < minDist[i] {
				minDist[i] = d
				assign[i] = c
			}
		}
	}

	// Weight each center by cluster cost mass.
	clusterCost := make([]float64, len(centers))
	for i := 0; i < n; i++ {
		clusterCost[assign[i]] += costs[i]
	}
	for c, id := range centers {
		wgt := 1.0
		if costs[id] > 0 {
			wgt = clusterCost[c] / costs[id]
		}
		out.IDs = append(out.IDs, id)
		out.Weights = append(out.Weights, wgt)
	}
	return out
}

// RandomSample keeps n uniformly sampled queries, each weighted N/n — the
// straw-man the paper tunes "5 different random samples of the same size"
// against the [20] compression.
func RandomSample(w *workload.Workload, n int, perm []int) *Compressed {
	if n > len(perm) {
		n = len(perm)
	}
	out := &Compressed{}
	weight := float64(w.Size()) / float64(n)
	for _, i := range perm[:n] {
		out.IDs = append(out.IDs, i)
		out.Weights = append(out.Weights, weight)
	}
	return out
}

// TemplateCoverage returns how many distinct templates of the original
// workload the compression retains — the quality-failure diagnosis of
// Section 7.3 ([20] captures "only few of the TPC-D query templates").
func (c *Compressed) TemplateCoverage(w *workload.Workload) int {
	tmpl := w.Partition().Of
	seen := make(map[int]bool)
	for _, id := range c.IDs {
		seen[tmpl[id]] = true
	}
	return len(seen)
}
