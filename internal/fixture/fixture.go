// Package fixture provides ready-made designs for tests and examples:
// the embedded c17 netlist and synthetic suite circuits bound to the
// default 100nm library and variation model.
package fixture

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/tech"
	"repro/internal/variation"
)

// Env bundles the shared technology context of a test design.
type Env struct {
	Lib *tech.Library
	Var *variation.Model
}

// DefaultEnv builds the default 100nm library and variation model.
func DefaultEnv() (*Env, error) {
	p := tech.Default100nm()
	lib, err := tech.NewLibrary(p)
	if err != nil {
		return nil, err
	}
	vm, err := variation.New(variation.Default(p.LeffNom))
	if err != nil {
		return nil, err
	}
	return &Env{Lib: lib, Var: vm}, nil
}

// C17 returns a fresh design over the embedded c17 netlist.
func C17() (*core.Design, error) {
	env, err := DefaultEnv()
	if err != nil {
		return nil, err
	}
	c, err := bench.ParseString("c17", bench.C17)
	if err != nil {
		return nil, err
	}
	return core.NewDesign(c, env.Lib, env.Var)
}

// Suite returns a fresh design over the named synthetic suite circuit
// — combinational ("s432" … "s7552") or sequential ("q344" … "q5378").
func Suite(name string) (*core.Design, error) {
	env, err := DefaultEnv()
	if err != nil {
		return nil, err
	}
	c, err := bench.GenerateNamed(name)
	if err != nil {
		return nil, err
	}
	d, err := core.NewDesign(c, env.Lib, env.Var)
	if err != nil {
		return nil, fmt.Errorf("fixture: %v", err)
	}
	return d, nil
}
