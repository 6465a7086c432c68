package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randomSPD(rng *rand.Rand, n int) *Sym {
	// A = B·Bᵀ + n·I is symmetric positive definite.
	b := make([]float64, n*n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	s := NewSym(n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 0.0
			for k := 0; k < n; k++ {
				v += b[i*n+k] * b[j*n+k]
			}
			if i == j {
				v += float64(n)
			}
			s.Set(i, j, v)
		}
	}
	return s
}

// column returns eigenvector k of e.
func column(e *Eigen, k int) []float64 {
	v := make([]float64, e.N)
	for i := range v {
		v[i] = e.V[i*e.N+k]
	}
	return v
}

func TestSymSetAt(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 2, 5)
	if s.Data[0*3+2] != 5 || s.Data[2*3+0] != 5 {
		t.Error("Set did not mirror")
	}
}

func TestEigenSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	s := NewSym(2)
	s.Set(0, 0, 2)
	s.Set(1, 1, 2)
	s.Set(0, 1, 1)
	e, err := EigenSym(s)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(e.Values[0], 3, 1e-10) || !almost(e.Values[1], 1, 1e-10) {
		t.Fatalf("eigenvalues = %v, want [3 1]", e.Values)
	}
	v0 := column(e, 0)
	if !almost(math.Abs(v0[0]), math.Sqrt(0.5), 1e-9) || !almost(math.Abs(v0[1]), math.Sqrt(0.5), 1e-9) {
		t.Errorf("first eigenvector = %v, want ±[1,1]/√2", v0)
	}
}

func TestEigenSymProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(12)
		s := randomSPD(rng, n)
		e, err := EigenSym(s)
		if err != nil {
			t.Fatal(err)
		}
		// Descending eigenvalues, all positive for SPD.
		for k := 0; k < n; k++ {
			if e.Values[k] <= 0 {
				t.Fatalf("eigenvalue %d = %g, want > 0", k, e.Values[k])
			}
			if k > 0 && e.Values[k] > e.Values[k-1]+1e-9 {
				t.Fatalf("eigenvalues not sorted: %v", e.Values)
			}
		}
		// Trace preserved.
		tr, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			tr += s.Data[i*s.N+i]
			sum += e.Values[i]
		}
		if !almost(tr, sum, 1e-7*(1+math.Abs(tr))) {
			t.Fatalf("trace %g != eigenvalue sum %g", tr, sum)
		}
		// S·v = λ·v and orthonormal columns.
		for k := 0; k < n; k++ {
			v := column(e, k)
			for i := 0; i < n; i++ {
				sv := Dot(s.Data[i*n:(i+1)*n], v)
				if !almost(sv, e.Values[k]*v[i], 1e-6*(1+math.Abs(sv))) {
					t.Fatalf("S·v != λ·v for k=%d (i=%d: %g vs %g)", k, i, sv, e.Values[k]*v[i])
				}
			}
			if norm := math.Sqrt(Dot(v, v)); !almost(norm, 1, 1e-8) {
				t.Fatalf("eigenvector %d not unit norm: %g", k, norm)
			}
			for m := k + 1; m < n; m++ {
				if d := Dot(v, column(e, m)); !almost(d, 0, 1e-8) {
					t.Fatalf("eigenvectors %d,%d not orthogonal: %g", k, m, d)
				}
			}
		}
	}
}

func TestEigenReconstructionProperty(t *testing.T) {
	// Property: V·diag(λ)·Vᵀ == S for random SPD matrices.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		s := randomSPD(rng, n)
		e, err := EigenSym(s)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := 0.0
				for k := 0; k < n; k++ {
					v += e.V[i*n+k] * e.Values[k] * e.V[j*n+k]
				}
				if !almost(v, s.Data[i*s.N+j], 1e-6*(1+math.Abs(s.Data[i*s.N+j]))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDotPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot did not panic on dimension mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
