// Package sched builds dependence graphs and schedules IR into VLIW
// bundles: acyclic list scheduling for general blocks and iterative
// modulo scheduling (Rau) for counted loop kernels, with
// prologue/kernel/epilogue generation.
package sched

import (
	"lpbuf/internal/ir"
)

// Region identifies the memory object a pointer register is derived
// from, for store/load disambiguation. RegionTop aliases everything;
// RegionNone means "not a pointer we have seen".
type Region int32

const (
	RegionNone Region = 0
	RegionTop  Region = -1
)

// AliasInfo holds per-register region facts for one function.
type AliasInfo struct {
	regions map[ir.Reg]Region
}

// AnalyzeAlias performs a simple flow-insensitive region analysis: a
// register materialized from a constant inside a global's extent is
// derived from that global; pointer arithmetic (add/sub with an integer
// term) preserves the region; merging two different regions, or any
// operation we cannot interpret, yields RegionTop. This stands in for
// the paper's pointer analysis ("important for disambiguating
// pointer-based loads and stores"); it relies on the C-like property
// that addresses are formed as pointer ± integer, never pointer +
// pointer.
func AnalyzeAlias(prog *ir.Program, f *ir.Func) *AliasInfo {
	ai := &AliasInfo{regions: map[ir.Reg]Region{}}

	regionOfConst := func(v int64) Region {
		for gi, g := range prog.Globals {
			if v >= g.Offset && v < g.Offset+g.Size {
				return Region(gi + 1)
			}
		}
		return RegionNone
	}
	merge := func(a, b Region) Region {
		switch {
		case a == RegionNone:
			return b
		case b == RegionNone:
			return a
		case a == b:
			return a
		default:
			return RegionTop
		}
	}

	// Parameters may point anywhere.
	for _, p := range f.Params {
		ai.regions[p] = RegionTop
	}

	// Iterate to a fixpoint over all ops (flow-insensitive join).
	for changed := true; changed; {
		changed = false
		update := func(r ir.Reg, nr Region) {
			old := ai.regions[r]
			m := merge(old, nr)
			if m != old {
				ai.regions[r] = m
				changed = true
			}
		}
		for _, b := range f.Blocks {
			for _, op := range b.Ops {
				if len(op.Dest) == 0 {
					continue
				}
				d := op.Dest[0]
				switch op.Opcode {
				case ir.OpMov:
					if op.HasImm && len(op.Src) == 0 {
						update(d, regionOfConst(op.Imm))
					} else if len(op.Src) == 1 {
						update(d, ai.regions[op.Src[0]])
					}
				case ir.OpAdd, ir.OpSub:
					r0 := ai.regions[op.Src[0]]
					if op.HasImm && len(op.Src) == 1 {
						update(d, r0)
					} else if len(op.Src) == 2 {
						r1 := ai.regions[op.Src[1]]
						switch {
						case r0 == RegionNone:
							update(d, r1)
						case r1 == RegionNone:
							update(d, r0)
						default:
							// pointer+pointer should not occur; be safe.
							update(d, RegionTop)
						}
					}
				case ir.OpSel:
					update(d, merge(ai.regions[op.Src[1]], ai.regions[op.Src[2]]))
				case ir.OpMin, ir.OpMax:
					update(d, merge(ai.regions[op.Src[0]], regionOf2(ai, op)))
				case ir.OpCall:
					update(d, RegionTop)
				case ir.OpLdW, ir.OpLdH, ir.OpLdHU, ir.OpLdB, ir.OpLdBU:
					// A loaded value could be a stored pointer.
					update(d, RegionTop)
				default:
					// Arithmetic that mangles pointers (mul, shifts...):
					// result treated as a non-pointer integer unless an
					// operand had a region, in which case be safe.
					any := RegionNone
					for _, s := range op.Src {
						any = merge(any, ai.regions[s])
					}
					if any != RegionNone {
						update(d, RegionTop)
					}
				}
			}
		}
	}
	return ai
}

func regionOf2(ai *AliasInfo, op *ir.Op) Region {
	if len(op.Src) > 1 {
		return ai.regions[op.Src[1]]
	}
	return RegionNone
}

// RegionOf returns the region of a register.
func (ai *AliasInfo) RegionOf(r ir.Reg) Region { return ai.regions[r] }

// MayAlias reports whether two memory operations may touch the same
// location. Both must be loads/stores (address = Src[0] + Imm).
// sameBaseStable must be true only when both ops share a base register
// whose value cannot change between them (same iteration, no
// intervening redefinition); it enables offset-based disambiguation.
func (ai *AliasInfo) MayAlias(a, b *ir.Op, sameBaseStable bool) bool {
	ra, rb := ai.regions[a.Src[0]], ai.regions[b.Src[0]]
	if ra == RegionTop || rb == RegionTop {
		return true
	}
	if ra != rb {
		return false
	}
	if sameBaseStable && a.Src[0] == b.Src[0] {
		ax, bx := a.Imm, b.Imm
		if ax+ir.MemWidth(a.Opcode) <= bx || bx+ir.MemWidth(b.Opcode) <= ax {
			return false
		}
	}
	return true
}
