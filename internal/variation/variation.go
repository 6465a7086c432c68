// Package variation models process variation of the effective channel
// length (ΔLeff) and threshold voltage (ΔVth) across a die, in the
// three-component decomposition the statistical-timing literature uses:
//
//   - a die-to-die (D2D) component shared by every gate,
//   - a within-die spatially correlated component, modeled on a g×g
//     grid with distance-decaying correlation and reduced to a small
//     set of independent principal components (PCA), and
//   - a per-gate independent component (random dopant fluctuation and
//     residual ΔL).
//
// Every gate's ΔLeff is then a linear combination of a shared standard
// normal vector Z (the "globals": D2D plus the spatial PCs) and one
// private standard normal:
//
//	ΔLeff(gate) = a(x,y)·Z + σ_ind·R_gate,   ΔVth_ind(gate) = σ_v·R'_gate
//
// which is exactly the canonical first-order form SSTA and the
// lognormal leakage machinery consume, and what Monte Carlo samples.
package variation

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// Config parameterizes the variation model.
type Config struct {
	SigmaLNm float64 // total σ(ΔLeff) [nm]

	// Variance fractions of ΔLeff; must be non-negative and sum to 1.
	FracD2D  float64
	FracCorr float64
	FracInd  float64

	SigmaVthIndV float64 // per-gate independent σ(ΔVth) [V]

	GridDim      int     // spatial grid is GridDim×GridDim over the unit die
	CorrLength   float64 // correlation length λ of ρ(d)=exp(−(d/λ)²), in die units
	KeepFraction float64 // PCA energy retained (0 < f ≤ 1); 0 defaults to 0.98
}

// Default returns the baseline variation used by the experiments:
// σ(Leff) = 6% of the given nominal channel length, split 40% D2D,
// 40% correlated within-die, 20% independent; 15 mV independent Vth
// variation; an 8×8 grid with correlation length 0.3.
func Default(leffNomNm float64) Config {
	return Config{
		SigmaLNm:     0.06 * leffNomNm,
		FracD2D:      0.4,
		FracCorr:     0.4,
		FracInd:      0.2,
		SigmaVthIndV: 0.015,
		GridDim:      8,
		CorrLength:   0.45,
		KeepFraction: 0.98,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SigmaLNm < 0:
		return fmt.Errorf("variation: SigmaLNm %g must be >= 0", c.SigmaLNm)
	case c.FracD2D < 0 || c.FracCorr < 0 || c.FracInd < 0:
		return fmt.Errorf("variation: variance fractions must be non-negative")
	case math.Abs(c.FracD2D+c.FracCorr+c.FracInd-1) > 1e-9:
		return fmt.Errorf("variation: variance fractions sum to %g, want 1",
			c.FracD2D+c.FracCorr+c.FracInd)
	case c.SigmaVthIndV < 0:
		return fmt.Errorf("variation: SigmaVthIndV %g must be >= 0", c.SigmaVthIndV)
	case c.GridDim < 1:
		return fmt.Errorf("variation: GridDim %d must be >= 1", c.GridDim)
	case c.CorrLength <= 0:
		return fmt.Errorf("variation: CorrLength %g must be > 0", c.CorrLength)
	case c.KeepFraction < 0 || c.KeepFraction > 1:
		return fmt.Errorf("variation: KeepFraction %g outside [0,1]", c.KeepFraction)
	}
	return nil
}

// Model is the constructed (PCA-reduced) variation model.
type Model struct {
	Cfg Config

	// NumPC is the length of the global vector Z: index 0 is the D2D
	// component, indices 1.. are the retained spatial PCs.
	NumPC int

	loads      [][]float64 // per grid cell: loading vector of length NumPC
	sigmaIndNm float64     // per-gate independent σ(ΔL)
}

// New builds the model: it assembles the grid covariance
// Σij = σ_corr²·exp(−(d(i,j)/λ)²) — the smooth squared-exponential
// kernel standard in grid-based SSTA, whose spectrum decays fast
// enough for PCA to keep only a handful of components —
// eigendecomposes it, and keeps the leading components covering
// KeepFraction of the energy.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if stats.EqZero(cfg.KeepFraction) {
		cfg.KeepFraction = 0.98
	}
	m := &Model{Cfg: cfg}
	varTotal := cfg.SigmaLNm * cfg.SigmaLNm
	sigmaD2D := math.Sqrt(cfg.FracD2D * varTotal)
	varCorr := cfg.FracCorr * varTotal
	m.sigmaIndNm = math.Sqrt(cfg.FracInd * varTotal)

	g := cfg.GridDim
	n := g * g
	cells := n

	var spatial [][]float64 // per cell: spatial PC loadings
	numSpatial := 0
	if varCorr > 0 && cells > 1 {
		cov := linalg.NewSym(cells)
		for i := 0; i < cells; i++ {
			xi, yi := cellCenter(g, i)
			for j := i; j < cells; j++ {
				xj, yj := cellCenter(g, j)
				d := math.Hypot(xi-xj, yi-yj) / cfg.CorrLength
				cov.Set(i, j, varCorr*math.Exp(-d*d))
			}
		}
		eig, err := linalg.EigenSym(cov)
		if err != nil {
			return nil, fmt.Errorf("variation: %v", err)
		}
		trace := 0.0
		for _, v := range eig.Values {
			if v > 0 {
				trace += v
			}
		}
		kept := 0.0
		for k := 0; k < cells; k++ {
			if eig.Values[k] <= 0 {
				break
			}
			numSpatial++
			kept += eig.Values[k]
			if kept >= cfg.KeepFraction*trace {
				break
			}
		}
		spatial = make([][]float64, cells)
		for c := 0; c < cells; c++ {
			row := make([]float64, numSpatial)
			for k := 0; k < numSpatial; k++ {
				row[k] = eig.V[c*cells+k] * math.Sqrt(eig.Values[k])
			}
			spatial[c] = row
		}
	} else if varCorr > 0 {
		// single cell: the "spatial" component is one shared normal
		numSpatial = 1
		spatial = [][]float64{{math.Sqrt(varCorr)}}
	}

	m.NumPC = 1 + numSpatial
	m.loads = make([][]float64, cells)
	for c := 0; c < cells; c++ {
		row := make([]float64, m.NumPC)
		row[0] = sigmaD2D
		if spatial != nil {
			copy(row[1:], spatial[c])
		}
		m.loads[c] = row
	}
	return m, nil
}

func cellCenter(g, idx int) (x, y float64) {
	cx := idx % g
	cy := idx / g
	return (float64(cx) + 0.5) / float64(g), (float64(cy) + 0.5) / float64(g)
}

// CellOf maps a unit-die placement coordinate to its grid-cell index.
func (m *Model) CellOf(x, y float64) int {
	g := m.Cfg.GridDim
	cx := int(x * float64(g))
	cy := int(y * float64(g))
	if cx < 0 {
		cx = 0
	}
	if cx >= g {
		cx = g - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g {
		cy = g - 1
	}
	return cy*g + cx
}

// Loads returns the loading vector a(x,y) of ΔLeff [nm] onto the
// global vector Z for a gate placed at (x,y). The returned slice is
// owned by the model and must not be modified.
func (m *Model) Loads(x, y float64) []float64 {
	return m.loads[m.CellOf(x, y)]
}

// SigmaIndNm returns the per-gate independent σ(ΔLeff) [nm].
func (m *Model) SigmaIndNm() float64 { return m.sigmaIndNm }

// SigmaVthInd returns the per-gate independent σ(ΔVth) [V].
func (m *Model) SigmaVthInd() float64 { return m.Cfg.SigmaVthIndV }

// GlobalVarAt returns the variance of ΔLeff carried by the global
// components at location (x,y) — i.e. |a(x,y)|² [nm²].
func (m *Model) GlobalVarAt(x, y float64) float64 {
	a := m.Loads(x, y)
	return linalg.Dot(a, a)
}

// TotalVarAt returns the modeled total Var(ΔLeff) at a location,
// including the independent part. PCA truncation makes this slightly
// smaller than Cfg.SigmaLNm² — tests bound the loss.
func (m *Model) TotalVarAt(x, y float64) float64 {
	return m.GlobalVarAt(x, y) + m.sigmaIndNm*m.sigmaIndNm
}

// Correlation returns the model-implied correlation of ΔLeff between
// two die locations.
func (m *Model) Correlation(x1, y1, x2, y2 float64) float64 {
	a := m.Loads(x1, y1)
	b := m.Loads(x2, y2)
	// The independent component is per-gate and contributes no
	// covariance between two distinct gates, even in the same cell.
	cov := linalg.Dot(a, b)
	v1 := m.TotalVarAt(x1, y1)
	v2 := m.TotalVarAt(x2, y2)
	if stats.EqZero(v1) || stats.EqZero(v2) {
		return 0
	}
	return cov / math.Sqrt(v1*v2)
}

// SampleGlobals draws one die's shared global vector Z ~ N(0, I) into
// z, which must have length NumPC. Samplers pass the same buffer for
// every die, so drawing a die allocates nothing.
func (m *Model) SampleGlobals(rng *rand.Rand, z []float64) {
	for i := range z[:m.NumPC] {
		z[i] = rng.NormFloat64()
	}
}

// NumCells returns the number of grid cells, GridDim².
func (m *Model) NumCells() int { return len(m.loads) }

// Excursions writes into e, which must have length NumCells, the
// global ΔLeff excursion a·z [nm] of every grid cell on the die with
// globals z, a the cell's loading row. Every gate of a cell shares
// its cell's excursion, so a sampler computes it once per cell and
// die rather than once per gate.
func (m *Model) Excursions(z, e []float64) {
	for c, a := range m.loads {
		e[c] = linalg.Dot(a, z)
	}
}

// DeltaL returns the ΔLeff [nm] of a gate whose grid cell has global
// excursion e on the die (Excursions, indexed by CellOf), given the
// gate's private standard-normal draw r.
func (m *Model) DeltaL(e, r float64) float64 {
	return e + m.sigmaIndNm*r
}

// DeltaVth returns the independent ΔVth [V] for the gate's private
// standard-normal draw r.
func (m *Model) DeltaVth(r float64) float64 {
	return m.Cfg.SigmaVthIndV * r
}
