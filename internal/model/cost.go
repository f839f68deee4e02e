package model

// This file implements the cost functions of paper §II.
//
// The expected total completion time of organization i's requests is
//
//	C_i = Σ_j ( l_j/(2 s_j) + c_ij ) · r_ij            (paper eq. 1)
//
// and the system objective is ΣC_i = Σ_i C_i. Summing the congestion term
// over all owners collapses to Σ_j l_j²/(2 s_j), which lets TotalCost run
// in O(m²) instead of O(m³).

// OrgCost returns C_i for organization i under the given allocation, using
// the supplied precomputed load vector (as returned by Loads/LoadsInto).
func OrgCost(in *Instance, a *Allocation, loads []float64, i int) float64 {
	var c float64
	row := a.R[i]
	lat := in.Latency
	for j, r := range row {
		if r == 0 {
			continue
		}
		c += r * (loads[j]/(2*in.Speed[j]) + lat.At(i, j))
	}
	return c
}

// OrgCosts returns the vector of per-organization costs C_i.
func OrgCosts(in *Instance, a *Allocation) []float64 {
	loads := a.Loads()
	out := make([]float64, in.M())
	for i := range out {
		out[i] = OrgCost(in, a, loads, i)
	}
	return out
}

// TotalCost returns the system objective ΣC_i.
func TotalCost(in *Instance, a *Allocation) float64 {
	loads := a.Loads()
	return TotalCostWithLoads(in, a, loads)
}

// TotalCostWithLoads is TotalCost with a caller-provided load vector,
// avoiding the recomputation when loads are maintained incrementally.
func TotalCostWithLoads(in *Instance, a *Allocation, loads []float64) float64 {
	var congestion float64
	for j, l := range loads {
		congestion += l * l / (2 * in.Speed[j])
	}
	return congestion + CommCost(in, a)
}

// CommCost returns the pure communication component Σ_ij c_ij r_ij.
func CommCost(in *Instance, a *Allocation) float64 {
	var t float64
	lat := in.Latency
	for i, row := range a.R {
		for j, r := range row {
			if r != 0 && i != j {
				t += r * lat.At(i, j)
			}
		}
	}
	return t
}
