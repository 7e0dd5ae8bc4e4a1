package sched

import (
	"fmt"
	"sync/atomic"

	"lpbuf/internal/ir"
	"lpbuf/internal/machine"
)

// SOp is one scheduled operation instance within a bundle.
type SOp struct {
	Op   *ir.Op
	Slot int
	// TargetBundle is the resolved bundle index for branch ops.
	TargetBundle int
	// resolved marks TargetBundle as final (set during emission for
	// kernel back edges and non-branches).
	resolved bool
}

// Bundle is the set of operations issued in one cycle.
type Bundle struct {
	Ops []*SOp
}

// OpCount returns non-nop ops in the bundle.
func (b *Bundle) OpCount() int { return len(b.Ops) }

// BlockCode is the schedule of one IR block (or one section of an
// expanded software-pipelined loop).
type BlockCode struct {
	Block ir.BlockID
	// Kind distinguishes straight blocks from pipelined sections.
	Kind BlockKind
	// Start is the global bundle index of the section's first bundle.
	Start int
	// Bundles in this section.
	Bundles []*Bundle
	// II and Stages are set for Kind == KindKernel.
	II, Stages int
	// Proven is set for Kind == KindKernel when an exact backend
	// proved the kernel's II minimal (see KernelSchedule.Proven).
	Proven bool
}

// BlockKind tags BlockCode sections.
type BlockKind uint8

const (
	KindStraight BlockKind = iota
	KindPrologue
	KindKernel
	KindEpilogue
)

// FuncCode is a fully scheduled function.
type FuncCode struct {
	F *ir.Func
	// Sections in layout order.
	Sections []*BlockCode
	// Bundles is the flattened schedule.
	Bundles []*Bundle
	// Start maps a block ID to its first bundle (for prologue-expanded
	// loops this is the prologue start; back edges are resolved to the
	// kernel internally).
	Start map[ir.BlockID]int
	// FallBundle maps the last bundle index of each section to the
	// bundle index control falls into (-1 = none, function end).
	fallTo map[int]int
	// fall is the per-bundle fallthrough table densified from fallTo
	// (built once after emission) so the simulator's fetch path indexes
	// a slice instead of probing a map every cycle.
	fall []int32
	// decoded is an opaque cache slot for execution engines: the
	// simulator stores its pre-decoded micro-op image of this function
	// here (see internal/vliw's decode layer). The slot holds an
	// immutable value built deterministically from the schedule, so
	// concurrent racing decoders may both build and either result wins.
	decoded atomic.Value
}

// DecodedImage returns the value cached by SetDecodedImage (nil before
// the first store). The schedule itself never interprets the value.
func (fc *FuncCode) DecodedImage() any { return fc.decoded.Load() }

// SetDecodedImage caches an execution engine's pre-decoded form of
// this function. The value must be immutable and derived only from the
// schedule, so that every racing store is interchangeable.
func (fc *FuncCode) SetDecodedImage(img any) { fc.decoded.Store(img) }

// OpCount returns total scheduled non-nop ops.
func (fc *FuncCode) OpCount() int {
	n := 0
	for _, b := range fc.Bundles {
		n += len(b.Ops)
	}
	return n
}

// FallTarget returns the bundle control reaches after falling out of
// bundle i (i.e., i+1 unless i ends a section with an explicit
// fallthrough elsewhere). Returns -1 at function end.
func (fc *FuncCode) FallTarget(i int) int {
	if fc.fall != nil {
		return int(fc.fall[i])
	}
	if t, ok := fc.fallTo[i]; ok {
		return t
	}
	if i+1 < len(fc.Bundles) {
		return i + 1
	}
	return -1
}

// finalizeFalls densifies fallTo into the per-bundle fall table. Called
// once after emission resolves every fallthrough.
func (fc *FuncCode) finalizeFalls() {
	fc.fall = make([]int32, len(fc.Bundles))
	for i := range fc.Bundles {
		t := i + 1
		if t >= len(fc.Bundles) {
			t = -1
		}
		if ft, ok := fc.fallTo[i]; ok {
			t = ft
		}
		fc.fall[i] = int32(t)
	}
}

// Code is a scheduled program.
type Code struct {
	Prog  *ir.Program
	Funcs map[string]*FuncCode
	Mach  *machine.Desc
}

// Validate checks structural invariants of the schedule: slot classes
// match ops, no slot is double-booked, branch targets resolve.
func (c *Code) Validate() error {
	for name, fc := range c.Funcs {
		for bi, b := range fc.Bundles {
			seen := map[int]bool{}
			for _, so := range b.Ops {
				if so.Slot < 0 || so.Slot >= c.Mach.Width() {
					return fmt.Errorf("%s bundle %d: bad slot %d", name, bi, so.Slot)
				}
				if seen[so.Slot] {
					return fmt.Errorf("%s bundle %d: slot %d double-booked", name, bi, so.Slot)
				}
				seen[so.Slot] = true
				cls := ir.UnitFor(so.Op)
				if !c.Mach.Slots[so.Slot].Has(cls) {
					return fmt.Errorf("%s bundle %d: op %s needs %s, slot %d lacks it",
						name, bi, so.Op, cls, so.Slot)
				}
				if so.Op.IsBranch() || so.Op.Opcode == ir.OpExecCLoop || so.Op.Opcode == ir.OpExecWLoop {
					if so.TargetBundle < 0 || so.TargetBundle >= len(fc.Bundles) {
						return fmt.Errorf("%s bundle %d: unresolved branch target %d",
							name, bi, so.TargetBundle)
					}
				}
			}
		}
	}
	return nil
}
