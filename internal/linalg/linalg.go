// Package linalg provides the small dense linear-algebra kernel the
// variation model needs: symmetric matrices and a cyclic Jacobi
// eigendecomposition. Matrices here are tiny
// (grid-covariance matrices, at most a few hundred rows), so clarity
// beats blocking/vectorization tricks.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Sym is a dense symmetric n×n matrix stored in full row-major form.
// Set keeps the matrix symmetric by writing both triangles.
type Sym struct {
	N    int
	Data []float64 // len N*N, row-major
}

// NewSym returns a zero symmetric matrix of order n.
func NewSym(n int) *Sym {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: NewSym(%d)", n))
	}
	return &Sym{N: n, Data: make([]float64, n*n)}
}

// Set writes element (i,j) and its mirror (j,i).
func (s *Sym) Set(i, j int, v float64) {
	s.Data[i*s.N+j] = v
	s.Data[j*s.N+i] = v
}

// Clone returns a deep copy.
func (s *Sym) Clone() *Sym {
	c := NewSym(s.N)
	copy(c.Data, s.Data)
	return c
}

// Eigen holds the spectral decomposition S = V·diag(Values)·Vᵀ with
// eigenvalues sorted in descending order; column k of V (i.e.
// V[i*N+k] over i) is the unit eigenvector for Values[k].
type Eigen struct {
	N      int
	Values []float64
	V      []float64 // row-major N×N, columns are eigenvectors
}

// EigenSym computes the eigendecomposition of a symmetric matrix with
// the cyclic Jacobi method. It converges quadratically; maxSweeps=30
// is far more than tiny covariance matrices ever need.
func EigenSym(s *Sym) (*Eigen, error) {
	n := s.N
	a := s.Clone().Data
	v := make([]float64, n*n)
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i*n+j] * a[i*n+j]
			}
		}
		if off < 1e-22*float64(n*n) {
			return sortEigen(n, a, v), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := a[p*n+p]
				aqq := a[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				cos := 1 / math.Sqrt(t*t+1)
				sin := t * cos
				// Rotate rows/cols p and q of a.
				for k := 0; k < n; k++ {
					akp := a[k*n+p]
					akq := a[k*n+q]
					a[k*n+p] = cos*akp - sin*akq
					a[k*n+q] = sin*akp + cos*akq
				}
				for k := 0; k < n; k++ {
					apk := a[p*n+k]
					aqk := a[q*n+k]
					a[p*n+k] = cos*apk - sin*aqk
					a[q*n+k] = sin*apk + cos*aqk
				}
				// Accumulate the rotation into v.
				for k := 0; k < n; k++ {
					vkp := v[k*n+p]
					vkq := v[k*n+q]
					v[k*n+p] = cos*vkp - sin*vkq
					v[k*n+q] = sin*vkp + cos*vkq
				}
			}
		}
	}
	return nil, errors.New("linalg: EigenSym did not converge")
}

func sortEigen(n int, a, v []float64) *Eigen {
	e := &Eigen{N: n, Values: make([]float64, n), V: make([]float64, n*n)}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a[i*n+i]
	}
	// selection sort by descending eigenvalue (n is tiny)
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if vals[idx[j]] > vals[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	for k := 0; k < n; k++ {
		src := idx[k]
		e.Values[k] = vals[src]
		for i := 0; i < n; i++ {
			e.V[i*n+k] = v[i*n+src]
		}
	}
	return e
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot dim %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
