package qp

import (
	"fmt"
	"io"
	"strings"

	"delaylb/internal/model"
)

// This file materializes the dense quadratic program of paper §III.
// The flattened variable vector is
//
//	ρ = [ρ(1,1), …, ρ(1,m), ρ(2,1), …, ρ(m,m)]ᵀ
//
// (index (i,j) ↦ i·m+j), Q is m²×m² with
//
//	q_(i,j),(k,l) = n_i n_k / s_j   if j == l and i < k,
//	              = n_i n_k / 2s_j  if j == l and i == k,
//	              = 0               otherwise,
//
// and b_(i,j) = c_ij n_i. The dense form is exponential in memory for
// large m (the very reason the paper builds a distributed algorithm), so
// it is used only for verification and the Figure 1 artifact.

// BuildQ returns the dense Q matrix (m²×m²) of the instance.
func BuildQ(in *model.Instance) [][]float64 {
	m := in.M()
	n := m * m
	q := make([][]float64, n)
	for r := range q {
		q[r] = make([]float64, n)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			row := i*m + j
			for k := i; k < m; k++ {
				col := k*m + j
				v := in.Load[i] * in.Load[k] / in.Speed[j]
				if k == i {
					v /= 2
				}
				q[row][col] = v
			}
		}
	}
	return q
}

// BuildB returns the linear-term vector b with b_(i,j) = c_ij·n_i.
func BuildB(in *model.Instance) []float64 {
	m := in.M()
	b := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			b[i*m+j] = in.LatAt(i, j) * in.Load[i]
		}
	}
	return b
}

// Flatten converts an m×m ρ matrix into the flattened vector ordering
// used by BuildQ/BuildB.
func Flatten(rho [][]float64) []float64 {
	m := len(rho)
	v := make([]float64, m*m)
	for i, row := range rho {
		copy(v[i*m:(i+1)*m], row)
	}
	return v
}

// QuadraticForm evaluates ρᵀQρ + bᵀρ for the flattened vector v.
func QuadraticForm(q [][]float64, b, v []float64) float64 {
	var total float64
	for r := range q {
		if v[r] == 0 {
			continue
		}
		var dot float64
		row := q[r]
		for c, qc := range row {
			if qc != 0 {
				dot += qc * v[c]
			}
		}
		total += v[r] * dot
	}
	for i, bi := range b {
		if bi != 0 && v[i] != 0 {
			total += bi * v[i]
		}
	}
	return total
}

// FprintStructure writes the sparsity pattern of Q for a small instance,
// reproducing paper Figure 1: X marks a non-zero entry, rows/columns are
// grouped in m blocks of m.
func FprintStructure(w io.Writer, in *model.Instance) error {
	m := in.M()
	q := BuildQ(in)
	n := m * m
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("Q structure for m=%d (m²×m² = %d×%d); X = n_i·n_k/s_j, D = n_i²/2s_j\n", m, n, n))
	for r := 0; r < n; r++ {
		if r%m == 0 && r > 0 {
			for c := 0; c < n+(n/m-1); c++ {
				sb.WriteByte('-')
			}
			sb.WriteByte('\n')
		}
		for c := 0; c < n; c++ {
			if c%m == 0 && c > 0 {
				sb.WriteByte('|')
			}
			switch {
			case q[r][c] == 0:
				sb.WriteByte('.')
			case r == c:
				sb.WriteByte('D')
			default:
				sb.WriteByte('X')
			}
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
