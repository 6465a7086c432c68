package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tech"
)

// Kind labels the move families. Optimizers key blacklists and
// statistics on (gate, Kind) pairs.
type Kind uint8

const (
	KindVthSwap Kind = iota
	KindUpsize
	KindDownsize
)

func (k Kind) String() string {
	switch k {
	case KindVthSwap:
		return "vth-swap"
	case KindUpsize:
		return "upsize"
	case KindDownsize:
		return "downsize"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Move is one reversible change to a design's per-gate assignment.
// Apply and Revert verify the expected starting state, so a move that
// is replayed out of order fails loudly instead of silently corrupting
// the assignment — the property tests rely on this.
//
// Moves mutate only the raw design; use Engine.Apply/Engine.Revert (or
// the Family's) to keep the engine's cached timing and leakage state
// consistent.
type Move interface {
	// Gate returns the node ID the move touches.
	Gate() int
	// Kind returns the move family.
	Kind() Kind
	// Apply performs the move on d.
	Apply(d *core.Design) error
	// Revert undoes the move on d.
	Revert(d *core.Design) error
	// target checks Apply's precondition on d without mutating it and
	// returns the gate's Vth class and drive size after the move — the
	// read-only view local scoring evaluates.
	target(d *core.Design) (tech.VthClass, float64, error)
}

// VthSwap reassigns a gate's threshold class.
type VthSwap struct {
	ID       int
	From, To tech.VthClass
}

// NewVthSwap builds a swap of gate id from its current class to "to",
// capturing the current class so Revert is exact.
func NewVthSwap(d *core.Design, id int, to tech.VthClass) (VthSwap, error) {
	if !to.Valid() {
		return VthSwap{}, fmt.Errorf("engine: invalid Vth class %d", uint8(to))
	}
	return VthSwap{ID: id, From: d.Vth[id], To: to}, nil
}

func (m VthSwap) Gate() int  { return m.ID }
func (m VthSwap) Kind() Kind { return KindVthSwap }

func (m VthSwap) Apply(d *core.Design) error  { return swapVth(d, m.ID, m.From, m.To) }
func (m VthSwap) Revert(d *core.Design) error { return swapVth(d, m.ID, m.To, m.From) }

func (m VthSwap) target(d *core.Design) (tech.VthClass, float64, error) {
	if err := checkVth(d, m.ID, m.From); err != nil {
		return 0, 0, err
	}
	if !m.To.Valid() {
		return 0, 0, fmt.Errorf("engine: invalid Vth class %d", uint8(m.To))
	}
	return m.To, d.Size[m.ID], nil
}

func swapVth(d *core.Design, id int, from, to tech.VthClass) error {
	if err := checkVth(d, id, from); err != nil {
		return err
	}
	return d.SetVth(id, to)
}

func checkVth(d *core.Design, id int, from tech.VthClass) error {
	if d.Vth[id] != from {
		return fmt.Errorf("engine: gate %d has Vth class %d, move expected %d",
			id, uint8(d.Vth[id]), uint8(from))
	}
	return nil
}

// Resize moves a gate between two adjacent-or-not ladder indices.
type Resize struct {
	ID             int
	FromIdx, ToIdx int
}

// NewUpsize builds a one-step size-up of gate id; ok is false when the
// gate already sits at the top of the ladder.
func NewUpsize(d *core.Design, id int) (Resize, bool) {
	si := d.SizeIndex(id)
	if si < 0 || si+1 >= len(d.Lib.Sizes) {
		return Resize{}, false
	}
	return Resize{ID: id, FromIdx: si, ToIdx: si + 1}, true
}

// NewDownsize builds a one-step size-down of gate id; ok is false at
// the bottom of the ladder.
func NewDownsize(d *core.Design, id int) (Resize, bool) {
	si := d.SizeIndex(id)
	if si <= 0 {
		return Resize{}, false
	}
	return Resize{ID: id, FromIdx: si, ToIdx: si - 1}, true
}

func (m Resize) Gate() int { return m.ID }

func (m Resize) Kind() Kind {
	if m.ToIdx > m.FromIdx {
		return KindUpsize
	}
	return KindDownsize
}

func (m Resize) Apply(d *core.Design) error  { return resize(d, m.ID, m.FromIdx, m.ToIdx) }
func (m Resize) Revert(d *core.Design) error { return resize(d, m.ID, m.ToIdx, m.FromIdx) }

func (m Resize) target(d *core.Design) (tech.VthClass, float64, error) {
	if err := checkSize(d, m.ID, m.FromIdx); err != nil {
		return 0, 0, err
	}
	if m.ToIdx < 0 || m.ToIdx >= len(d.Lib.Sizes) {
		return 0, 0, fmt.Errorf("engine: size index %d outside ladder [0,%d)", m.ToIdx, len(d.Lib.Sizes))
	}
	return d.Vth[m.ID], d.Lib.Sizes[m.ToIdx], nil
}

func resize(d *core.Design, id, from, to int) error {
	if err := checkSize(d, id, from); err != nil {
		return err
	}
	return d.SetSizeIndex(id, to)
}

func checkSize(d *core.Design, id, from int) error {
	if got := d.SizeIndex(id); got != from {
		return fmt.Errorf("engine: gate %d at size index %d, move expected %d", id, got, from)
	}
	return nil
}
