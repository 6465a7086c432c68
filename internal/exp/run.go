package exp

import (
	"fmt"
	"io"
)

// Renderer is anything the experiment drivers produce (tables and
// figure series both render to a writer).
type Renderer interface {
	Render(io.Writer) error
}

// Experiment is one table, figure or ablation: its ID and its driver.
type Experiment struct {
	ID  string
	run func(*Context) (Renderer, error)
}

// Experiments lists every experiment in canonical order, the order
// RunAll runs them in.
var Experiments = []Experiment{
	{"table1", func(c *Context) (Renderer, error) { return c.Table1() }},
	{"table2", func(c *Context) (Renderer, error) { return c.Table2() }},
	{"table3", func(c *Context) (Renderer, error) { return c.Table3() }},
	{"table4", func(c *Context) (Renderer, error) { return c.Table4() }},
	{"fig1", func(c *Context) (Renderer, error) { return c.Figure1() }},
	{"fig2", func(c *Context) (Renderer, error) { return c.Figure2() }},
	{"fig3", func(c *Context) (Renderer, error) { return c.Figure3() }},
	{"fig4", func(c *Context) (Renderer, error) { return c.Figure4() }},
	{"fig5", func(c *Context) (Renderer, error) { return c.Figure5() }},
	{"fig6", func(c *Context) (Renderer, error) { return c.ScalingFigure() }},
	{"a1", func(c *Context) (Renderer, error) { return c.AblationMoves() }},
	{"a2", func(c *Context) (Renderer, error) { return c.AblationCorrelation() }},
	{"a3", func(c *Context) (Renderer, error) { return c.AblationLognormalSum() }},
	{"a4", func(c *Context) (Renderer, error) { return c.AblationAnnealing() }},
	{"a5", func(c *Context) (Renderer, error) { return c.AblationSampling() }},
	{"a6", func(c *Context) (Renderer, error) { return c.AblationISEfficiency() }},
	{"e1", func(c *Context) (Renderer, error) { return c.ExtensionABB() }},
	{"e2", func(c *Context) (Renderer, error) { return c.ExtensionStandbyVector() }},
	{"e3", func(c *Context) (Renderer, error) { return c.ExtensionDualFront() }},
	{"e4", func(c *Context) (Renderer, error) { return c.ExtensionTemperature() }},
	{"e5", func(c *Context) (Renderer, error) { return c.ScenarioTable() }},
	{"s1", func(c *Context) (Renderer, error) { return c.SequentialTable() }},
}

// Run executes one experiment by ID and renders it to ctx.Out.
func (ctx *Context) Run(id string) error {
	for _, e := range Experiments {
		if e.ID == id {
			r, err := e.run(ctx)
			if err != nil {
				return fmt.Errorf("exp: %s: %v", id, err)
			}
			return r.Render(ctx.Out)
		}
	}
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return fmt.Errorf("exp: unknown experiment %q (have %v)", id, ids)
}

// RunAll executes every experiment in canonical order.
func (ctx *Context) RunAll() error {
	for _, e := range Experiments {
		if err := ctx.Run(e.ID); err != nil {
			return err
		}
	}
	return nil
}
