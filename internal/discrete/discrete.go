// Package discrete implements the paper's §VII extensions: requests of
// different processing times, the rounding of the fractional solution to
// an assignment of whole tasks (a multiple-subset-sum problem, solved
// here with the largest-gap greedy heuristic), and the replication
// variant in which every task must be placed on R distinct servers,
// expressed through the extra constraint ρ_ij ≤ 1/R and probability-
// proportional sampling of replica locations.
package discrete

import (
	"math"
	"math/rand"
	"sort"

	"delaylb/internal/model"
	"delaylb/internal/qp"
)

// Task is one indivisible request: Size is its processing volume in the
// same unit as the instance loads.
type Task struct {
	Org  int
	ID   int
	Size float64
}

// GenerateTasks splits each organization's load into individual tasks
// with lognormal-ish size variation around meanSize, scaled so that each
// organization's tasks sum exactly to its load n_i.
func GenerateTasks(in *model.Instance, meanSize float64, rng *rand.Rand) []Task {
	var tasks []Task
	id := 0
	for org, n := range in.Load {
		if n <= 0 {
			continue
		}
		count := int(math.Max(1, math.Round(n/meanSize)))
		sizes := make([]float64, count)
		var sum float64
		for k := range sizes {
			sizes[k] = math.Exp(0.5 * rng.NormFloat64())
			sum += sizes[k]
		}
		for k := range sizes {
			tasks = append(tasks, Task{Org: org, ID: id, Size: sizes[k] / sum * n})
			id++
		}
	}
	return tasks
}

// Assignment maps each task (by position in the task slice) to a server.
type Assignment []int

// Round assigns whole tasks to servers so that each organization's
// per-server volume approximates the fractional targets r_ij = n_i ρ_ij.
// It processes each organization's tasks in descending size order,
// placing every task on the server with the largest remaining target gap
// — the classical LPT-style heuristic for multiple subset-sum. The
// resulting over-assignment of any server is bounded by the largest task
// size of the organization.
func Round(in *model.Instance, rho [][]float64, tasks []Task) Assignment {
	m := in.M()
	asg := make(Assignment, len(tasks))
	// Group task indices per organization.
	byOrg := make([][]int, m)
	for idx, t := range tasks {
		byOrg[t.Org] = append(byOrg[t.Org], idx)
	}
	for org, idxs := range byOrg {
		if len(idxs) == 0 {
			continue
		}
		sort.Slice(idxs, func(a, b int) bool {
			return tasks[idxs[a]].Size > tasks[idxs[b]].Size
		})
		gap := make([]float64, m)
		for j := 0; j < m; j++ {
			gap[j] = in.Load[org] * rho[org][j]
			if math.IsInf(in.LatAt(org, j), 1) {
				gap[j] = math.Inf(-1) // forbidden server
			}
		}
		for _, idx := range idxs {
			bestJ, bestGap := -1, math.Inf(-1)
			for j := 0; j < m; j++ {
				if gap[j] > bestGap {
					bestGap, bestJ = gap[j], j
				}
			}
			asg[idx] = bestJ
			gap[bestJ] -= tasks[idx].Size
		}
	}
	return asg
}

// Volumes converts an assignment back into an allocation of volumes.
func Volumes(in *model.Instance, tasks []Task, asg Assignment) *model.Allocation {
	a := model.NewAllocation(in.M())
	for idx, t := range tasks {
		a.R[t.Org][asg[idx]] += t.Size
	}
	return a
}

// ProjectCappedSimplex overwrites x with its Euclidean projection onto
// {y : 0 ≤ y_i ≤ cap, Σ y_i = 1}, the feasible set of the replication
// variant (cap = 1/R). It requires len(x)·cap ≥ 1 and uses bisection on
// the water level θ with x_i = clamp(x_i − θ, 0, cap).
func ProjectCappedSimplex(x []float64, cap float64) {
	n := len(x)
	if float64(n)*cap < 1-1e-12 {
		panic("discrete: infeasible cap: n·cap < 1")
	}
	sumAt := func(theta float64) float64 {
		var s float64
		for _, v := range x {
			c := v - theta
			if c < 0 {
				c = 0
			} else if c > cap {
				c = cap
			}
			s += c
		}
		return s
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range x {
		lo = math.Min(lo, v-cap)
		hi = math.Max(hi, v)
	}
	// sumAt(lo) = n·cap ≥ 1 and sumAt(hi) = 0 ≤ 1; bisect.
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if sumAt(mid) > 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	theta := (lo + hi) / 2
	for i, v := range x {
		c := v - theta
		if c < 0 {
			c = 0
		} else if c > cap {
			c = cap
		}
		x[i] = c
	}
	// Exact renormalization of residual bisection error.
	var s float64
	for _, v := range x {
		s += v
	}
	if s > 0 {
		for i := range x {
			x[i] /= s
		}
	}
}

// SolveReplicated minimizes ΣC_i under the replication constraint
// ρ_ij ≤ 1/R (paper §VII): projected gradient on the capped simplices.
// It returns the optimal fractions; sample replica placements with
// PlaceReplicas.
func SolveReplicated(in *model.Instance, r int, maxIters int, tol float64) [][]float64 {
	m := in.M()
	if r < 1 {
		r = 1
	}
	cap := 1.0 / float64(r)
	if float64(m)*cap < 1 {
		panic("discrete: fewer servers than replicas")
	}
	if maxIters <= 0 {
		maxIters = 5000
	}
	if tol <= 0 {
		tol = 1e-9
	}
	// Feasible start: spread uniformly over the R·2 cheapest servers per
	// row (uniform over all is always feasible).
	rho := make([][]float64, m)
	for i := 0; i < m; i++ {
		rho[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			rho[i][j] = 1 / float64(m)
		}
	}
	loads := make([]float64, m)
	grad := make([][]float64, m)
	for i := range grad {
		grad[i] = make([]float64, m)
	}
	l := qp.LipschitzConstant(in)
	eta := 1.0
	if l > 0 {
		eta = 1 / l
	}
	cost := qp.Objective(in, rho)
	for it := 0; it < maxIters; it++ {
		qp.Loads(in, rho, loads)
		qp.Gradient(in, loads, grad)
		for i := 0; i < m; i++ {
			if in.Load[i] == 0 {
				continue
			}
			for j := 0; j < m; j++ {
				if !math.IsInf(grad[i][j], 1) {
					rho[i][j] -= eta * grad[i][j]
				} else {
					rho[i][j] = 0
				}
			}
			ProjectCappedSimplex(rho[i], cap)
		}
		newCost := qp.Objective(in, rho)
		if cost-newCost <= tol*math.Max(1, cost) {
			break
		}
		cost = newCost
	}
	return rho
}

// PlaceReplicas samples the R distinct replica servers for one task of
// organization i, using systematic probability-proportional sampling
// with inclusion probabilities π_j = R·ρ_ij (paper §VII: "we can
// interpret Rρ_ij as the probability of placing a copy at j"). Because
// every π_j ≤ 1, systematic sampling returns exactly R distinct servers
// and the long-run inclusion frequency of server j is exactly π_j.
func PlaceReplicas(rhoRow []float64, r int, rng *rand.Rand) []int {
	m := len(rhoRow)
	pi := make([]float64, m)
	var sum float64
	for j, f := range rhoRow {
		pi[j] = float64(r) * f
		sum += pi[j]
	}
	if sum <= 0 {
		return nil
	}
	// Normalize tiny float drift so Σπ == r exactly.
	scale := float64(r) / sum
	for j := range pi {
		pi[j] *= scale
	}
	// Random starting point and random order defeat periodicity.
	order := rng.Perm(m)
	u := rng.Float64()
	var cum float64
	var out []int
	next := u
	for _, j := range order {
		cum += pi[j]
		for cum > next && len(out) < r {
			out = append(out, j)
			next++
		}
	}
	// Σπ = r guarantees r picks up to float error; top up defensively.
	for len(out) < r {
		out = append(out, order[len(out)%m])
	}
	return out
}
