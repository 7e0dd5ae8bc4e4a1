package ir

// This file is the executors' shared decoder. The IR interpreter and the
// cycle simulator both run ops in a pre-decoded form: Decode decides
// once, per static op, what each executor would otherwise re-derive on
// every issue — the dispatch kind, where each operand comes from (the
// HasImm convention) and which predicate destinations are live. Each
// executor adds only its own resolution on top: block and edge slots
// for the interpreter, latency, writeback routing, target bundle and
// callee code for the simulator.

// Kind is an op's decoded dispatch class. The hot forms of media
// kernels get kinds of their own, so that an op costs one dispatch:
// the register and immediate forms of add, sub, mul, mov, and, shl and
// shr, and loads by width with the bounds check inline. Every other ALU
// opcode is KindALU (ir.EvalALU).
type Kind uint8

const (
	// KindInvalid is an opcode no executor knows.
	KindInvalid Kind = iota
	KindNop

	// Specialized ALU forms: RR reads registers A and B, RI reads A
	// and the immediate. KindMovR copies A; KindMovI writes the
	// immediate.
	KindMovR
	KindMovI
	KindAddRR
	KindAddRI
	KindSubRR
	KindSubRI
	KindMulRR
	KindMulRI
	KindAndRR
	KindAndRI
	KindShlRR
	KindShlRI
	KindShrRR
	KindShrRI
	// KindALU is every other IsALUEvaluable opcode, evaluated by
	// EvalALU on the routed operands.
	KindALU

	KindSel
	KindCmpP

	// Loads by width, address A+Imm, bounds checked inline.
	KindLdB
	KindLdBU
	KindLdH
	KindLdHU
	KindLdW
	// KindStore writes B to A+Imm (ir.Store).
	KindStore

	KindBr
	KindJump
	KindBrCLoop
	KindCall
	KindRet
	// KindExecLoop is exec_[cw]loop, KindRecLoop rec_[cw]loop: loop
	// buffer directives (Table 3). In IR form exec transfers to its
	// Target and rec does nothing.
	KindExecLoop
	KindRecLoop
)

// IsSpecializedALU reports whether k is one of the register or
// immediate ALU forms that an executor evaluates inline.
func (k Kind) IsSpecializedALU() bool { return k >= KindMovR && k <= KindShrRI }

// IsWidthLoad reports whether k is a load specialized by width.
func (k Kind) IsWidthLoad() bool { return k >= KindLdB && k <= KindLdW }

// DecodedOp is one op with its dispatch decided. For the
// two-operand kinds (ALU, cmpp, br) the evaluated operands are A or
// the immediate when AImm, and B or the immediate when BImm; the
// specialized ALU kinds keep that routing valid too, so demoting one to
// KindALU needs no re-decode. Unused register fields stay 0.
type DecodedOp struct {
	Kind Kind
	Opc  Opcode
	Cmp  CmpKind
	// AImm/BImm route the first/second evaluated operand to Imm (HasImm
	// puts the immediate in the last source slot, so at most one is set).
	AImm, BImm bool
	// Unary marks single-operand ALU opcodes (mov, abs).
	Unary bool
	Spec  bool
	// NPD counts the live predicate destinations in PD.
	NPD   uint8
	Guard PredReg
	// A, B and C are the source registers (C only for sel; B is the
	// stored value for stores); Dest is Dest[0] or 0.
	A, B, C Reg
	Dest    Reg
	Imm     int64
	PD      [2]PredDest
}

// Decode returns op's decoded form.
func Decode(op *Op) DecodedOp {
	d := DecodedOp{Opc: op.Opcode, Cmp: op.Cmp, Guard: op.Guard, Imm: op.Imm,
		Spec: op.Speculative}
	if len(op.Dest) > 0 {
		d.Dest = op.Dest[0]
	}
	switch {
	case op.Opcode == OpNop:
		d.Kind = KindNop
	case op.Opcode == OpCmpP:
		d.Kind = KindCmpP
		d.operands(op)
		for _, pd := range op.PDest {
			if pd.Type != PTNone && pd.Pred != 0 {
				d.PD[d.NPD] = pd
				d.NPD++
			}
		}
	case op.Opcode == OpSel:
		d.Kind = KindSel
		d.A, d.B, d.C = op.Src[0], op.Src[1], op.Src[2]
	case IsALUEvaluable(op.Opcode):
		d.Unary = op.Opcode == OpMov || op.Opcode == OpAbs
		d.operands(op)
		d.Kind = d.aluKind()
	case op.IsLoad():
		d.Kind = KindLdB + Kind(op.Opcode-OpLdB)
		d.A = op.Src[0]
	case op.IsStore():
		d.Kind = KindStore
		d.A, d.B = op.Src[0], op.Src[1]
	case op.Opcode == OpBr:
		d.Kind = KindBr
		d.operands(op)
	case op.Opcode == OpJump:
		d.Kind = KindJump
	case op.Opcode == OpBrCLoop:
		d.Kind = KindBrCLoop
		d.A = op.Src[0]
	case op.Opcode == OpCall:
		d.Kind = KindCall
	case op.Opcode == OpRet:
		d.Kind = KindRet
		if len(op.Src) > 0 {
			d.A = op.Src[0]
		}
	case op.Opcode == OpExecCLoop || op.Opcode == OpExecWLoop:
		d.Kind = KindExecLoop
	case op.Opcode == OpRecCLoop || op.Opcode == OpRecWLoop:
		d.Kind = KindRecLoop
	default:
		d.Kind = KindInvalid
	}
	return d
}

// operands routes the two evaluated operands under the HasImm
// convention: the immediate, when present, stands in the last source
// slot.
func (d *DecodedOp) operands(op *Op) {
	if op.HasImm && len(op.Src) == 0 {
		d.AImm = true
	} else if len(op.Src) > 0 {
		d.A = op.Src[0]
	}
	if op.HasImm && len(op.Src) == 1 {
		d.BImm = true
	} else if len(op.Src) > 1 {
		d.B = op.Src[1]
	}
}

// aluKind picks the specialized form of an ALU op whose operands are
// routed, or KindALU.
func (d *DecodedOp) aluKind() Kind {
	if d.AImm {
		if d.Opc == OpMov {
			return KindMovI
		}
		return KindALU
	}
	if d.Opc == OpMov {
		return KindMovR
	}
	var rr Kind
	switch d.Opc {
	case OpAdd:
		rr = KindAddRR
	case OpSub:
		rr = KindSubRR
	case OpMul:
		rr = KindMulRR
	case OpAnd:
		rr = KindAndRR
	case OpShl:
		rr = KindShlRR
	case OpShr:
		rr = KindShrRR
	default:
		return KindALU
	}
	if d.BImm {
		return rr + 1 // each RI kind follows its RR kind
	}
	return rr
}

// ReadsReg reports whether the op sources register r at issue (r is
// never 0). Call arguments are not decoded, so calls report false;
// callers that need them read the op's Src.
func (d *DecodedOp) ReadsReg(r Reg) bool {
	switch d.Kind {
	case KindALU, KindCmpP, KindBr, KindStore,
		KindAddRR, KindSubRR, KindMulRR, KindAndRR, KindShlRR, KindShrRR:
		return d.A == r || d.B == r
	case KindSel:
		return d.A == r || d.B == r || d.C == r
	case KindMovR, KindAddRI, KindSubRI, KindMulRI, KindAndRI, KindShlRI, KindShrRI,
		KindLdB, KindLdBU, KindLdH, KindLdHU, KindLdW,
		KindBrCLoop, KindRet:
		return d.A == r
	}
	return false
}

// WritesReg reports whether the op defines register r (r is never 0).
func (d *DecodedOp) WritesReg(r Reg) bool {
	switch {
	case d.Kind.IsSpecializedALU(), d.Kind.IsWidthLoad():
		return d.Dest == r
	}
	switch d.Kind {
	case KindALU, KindSel, KindBrCLoop, KindCall:
		return d.Dest == r
	}
	return false
}
