package variation

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stats"
)

func defModel(t testing.TB) *Model {
	t.Helper()
	m, err := New(Default(60))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	if err := Default(60).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SigmaLNm = -1 },
		func(c *Config) { c.FracD2D = -0.1 },
		func(c *Config) { c.FracD2D = 0.9 }, // fractions no longer sum to 1
		func(c *Config) { c.SigmaVthIndV = -1 },
		func(c *Config) { c.GridDim = 0 },
		func(c *Config) { c.CorrLength = 0 },
		func(c *Config) { c.KeepFraction = 1.5 },
	}
	for i, mod := range bad {
		c := Default(60)
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestVarianceBudget(t *testing.T) {
	m := defModel(t)
	want := m.Cfg.SigmaLNm * m.Cfg.SigmaLNm
	// PCA truncation loses at most (1−KeepFraction) of the correlated
	// share, so total variance is within ~1% of the target everywhere.
	for _, xy := range [][2]float64{{0.05, 0.05}, {0.5, 0.5}, {0.95, 0.2}, {0.3, 0.8}} {
		got := m.TotalVarAt(xy[0], xy[1])
		if got > want*1.0001 || got < want*0.97 {
			t.Errorf("TotalVarAt(%v) = %g, want ≈ %g", xy, got, want)
		}
	}
}

func TestCorrelationStructure(t *testing.T) {
	m := defModel(t)
	// Nearby gates more correlated than far-apart gates.
	near := m.Correlation(0.30, 0.30, 0.35, 0.30)
	far := m.Correlation(0.05, 0.05, 0.95, 0.95)
	if near <= far {
		t.Errorf("near corr %g <= far corr %g", near, far)
	}
	// Far-apart gates still share the D2D floor: ≥ ~FracD2D·(something).
	if far <= 0.2 {
		t.Errorf("far corr %g; D2D floor should keep it above 0.2", far)
	}
	if near >= 1 {
		t.Errorf("near corr %g must stay < 1 (independent component)", near)
	}
	// Symmetry.
	if ab, ba := m.Correlation(0.1, 0.2, 0.8, 0.9), m.Correlation(0.8, 0.9, 0.1, 0.2); math.Abs(ab-ba) > 1e-12 {
		t.Errorf("correlation not symmetric: %g vs %g", ab, ba)
	}
}

func TestCellOfCoversGridAndClamps(t *testing.T) {
	m := defModel(t)
	g := m.Cfg.GridDim
	if got := m.CellOf(0, 0); got != 0 {
		t.Errorf("CellOf(0,0) = %d", got)
	}
	if got := m.CellOf(0.999, 0.999); got != g*g-1 {
		t.Errorf("CellOf(1⁻,1⁻) = %d, want %d", got, g*g-1)
	}
	// Out-of-range coordinates clamp instead of panicking.
	if got := m.CellOf(-0.5, 2.0); got < 0 || got >= g*g {
		t.Errorf("CellOf out of range: %d", got)
	}
}

func TestMonteCarloMatchesAnalyticMoments(t *testing.T) {
	m := defModel(t)
	rng := rand.New(rand.NewSource(3))
	const n = 60000
	x, y := 0.4, 0.6
	samples := make([]float64, n)
	z := make([]float64, m.NumPC)
	e := make([]float64, m.NumCells())
	for i := range samples {
		m.SampleGlobals(rng, z)
		m.Excursions(z, e)
		samples[i] = m.DeltaL(e[m.CellOf(x, y)], rng.NormFloat64())
	}
	gotVar := stats.Variance(samples)
	wantVar := m.TotalVarAt(x, y)
	if math.Abs(gotVar-wantVar) > 0.05*wantVar {
		t.Errorf("MC var %g vs analytic %g", gotVar, wantVar)
	}
	if mean := stats.Mean(samples); math.Abs(mean) > 0.05*m.Cfg.SigmaLNm {
		t.Errorf("MC mean %g, want ~0", mean)
	}
}

func TestMonteCarloPairCorrelation(t *testing.T) {
	m := defModel(t)
	rng := rand.New(rand.NewSource(9))
	const n = 60000
	x1, y1 := 0.2, 0.2
	x2, y2 := 0.25, 0.2
	x3, y3 := 0.9, 0.9
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	z := make([]float64, m.NumPC)
	e := make([]float64, m.NumCells())
	for i := 0; i < n; i++ {
		m.SampleGlobals(rng, z)
		m.Excursions(z, e)
		a[i] = m.DeltaL(e[m.CellOf(x1, y1)], rng.NormFloat64())
		b[i] = m.DeltaL(e[m.CellOf(x2, y2)], rng.NormFloat64())
		c[i] = m.DeltaL(e[m.CellOf(x3, y3)], rng.NormFloat64())
	}
	gotNear := stats.Correlation(a, b)
	wantNear := m.Correlation(x1, y1, x2, y2)
	if math.Abs(gotNear-wantNear) > 0.03 {
		t.Errorf("near-pair corr: MC %g vs analytic %g", gotNear, wantNear)
	}
	gotFar := stats.Correlation(a, c)
	wantFar := m.Correlation(x1, y1, x3, y3)
	if math.Abs(gotFar-wantFar) > 0.03 {
		t.Errorf("far-pair corr: MC %g vs analytic %g", gotFar, wantFar)
	}
}

func TestDeltaVth(t *testing.T) {
	m := defModel(t)
	if got := m.DeltaVth(2); got != 2*m.Cfg.SigmaVthIndV {
		t.Errorf("DeltaVth(2) = %g", got)
	}
	if m.SigmaVthInd() != m.Cfg.SigmaVthIndV {
		t.Error("SigmaVthInd accessor")
	}
}

func TestSingleCellGrid(t *testing.T) {
	cfg := Default(60)
	cfg.GridDim = 1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPC != 2 { // D2D + one shared "spatial" normal
		t.Errorf("NumPC = %d, want 2", m.NumPC)
	}
	want := cfg.SigmaLNm * cfg.SigmaLNm
	if got := m.TotalVarAt(0.5, 0.5); math.Abs(got-want) > 1e-9*want {
		t.Errorf("1×1 grid variance %g, want %g", got, want)
	}
}

func TestNoCorrelatedComponent(t *testing.T) {
	cfg := Default(60)
	cfg.FracD2D = 0.5
	cfg.FracCorr = 0
	cfg.FracInd = 0.5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPC != 1 {
		t.Errorf("NumPC = %d, want 1 (D2D only)", m.NumPC)
	}
	want := cfg.SigmaLNm * cfg.SigmaLNm
	if got := m.TotalVarAt(0.3, 0.7); math.Abs(got-want) > 1e-9*want {
		t.Errorf("variance %g, want %g", got, want)
	}
}

func TestPCAKeepsDimensionLow(t *testing.T) {
	m := defModel(t)
	cells := m.Cfg.GridDim * m.Cfg.GridDim
	if m.NumPC >= cells {
		t.Errorf("PCA kept %d components for %d cells; no reduction happened", m.NumPC, cells)
	}
	if m.NumPC < 2 {
		t.Errorf("NumPC = %d; expected at least D2D + 1 spatial", m.NumPC)
	}
}

// TestExcursionsMatchLoads: a cell's excursion is bitwise the dot
// product of the loading row of any position in the cell with the
// globals, the term DeltaL added per gate before excursions were
// computed per cell.
func TestExcursionsMatchLoads(t *testing.T) {
	m := defModel(t)
	rng := rand.New(rand.NewSource(5))
	z := make([]float64, m.NumPC)
	e := make([]float64, m.NumCells())
	for range 20 {
		m.SampleGlobals(rng, z)
		m.Excursions(z, e)
		for range 50 {
			x, y := rng.Float64(), rng.Float64()
			if got, want := e[m.CellOf(x, y)], linalg.Dot(m.Loads(x, y), z); got != want {
				t.Fatalf("excursion at (%g, %g) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestZeroVariationDegenerate(t *testing.T) {
	cfg := Default(60)
	cfg.SigmaLNm = 0
	cfg.SigmaVthIndV = 0
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	z := make([]float64, m.NumPC)
	e := make([]float64, m.NumCells())
	m.SampleGlobals(rng, z)
	m.Excursions(z, e)
	if dl := m.DeltaL(e[m.CellOf(0.5, 0.5)], rng.NormFloat64()); dl != 0 {
		t.Errorf("zero-variation ΔL = %g", dl)
	}
}
