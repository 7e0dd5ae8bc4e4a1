package interp

import (
	"testing"

	"lpbuf/internal/ir"
	"lpbuf/internal/ir/irbuild"
)

func TestAndTypePredicates(t *testing.T) {
	// p = (x > 0) && (x < 10), via and-type defines: initialize p to 1
	// (uf of a false condition), then AND in the conditions with af
	// (clears on guard && cond of the *negated* test) — here we use the
	// direct style: af writes 0 when guard && cond, so feed it the
	// negations.
	build := func(x int64) *ir.Program {
		pb := irbuild.NewProgram(16 << 10)
		f := pb.Func("main", 0, true)
		f.Block("entry")
		xr := f.Const(x)
		zero := f.Const(0)
		y := f.Reg()
		f.MovI(y, 0)
		p := f.F.NewPred()
		// p = 1 via uf(false cond).
		f.CmpPI(p, ir.PTUF, 0, ir.PTNone, ir.CmpNE, zero, 0)
		// af: write 0 when cond true; cond = !(x > 0) i.e. x <= 0.
		f.CmpPI(p, ir.PTAF, 0, ir.PTNone, ir.CmpLE, xr, 0)
		f.CmpPI(p, ir.PTAF, 0, ir.PTNone, ir.CmpGE, xr, 10)
		f.MovI(y, 1).Guard = p
		f.Ret(y)
		pb.SetEntry("main")
		return pb.MustBuild()
	}
	for _, c := range []struct{ x, want int64 }{{-1, 0}, {0, 0}, {1, 1}, {9, 1}, {10, 0}} {
		res, err := Run(build(c.x), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != c.want {
			t.Fatalf("x=%d: ret = %d, want %d", c.x, res.Ret, c.want)
		}
	}
}

func TestConditionalTypePredicates(t *testing.T) {
	// ct/cf write only when the guard is true (the old value survives a
	// false guard) — the key difference from ut/uf.
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("entry")
	one := f.Const(1)
	zero := f.Const(0)
	y := f.Reg()
	p := f.F.NewPred()
	q := f.F.NewPred()
	// p = true.
	f.CmpPI(p, ir.PTUT, 0, ir.PTNone, ir.CmpEQ, one, 1)
	// q = true via ct under p.
	f.CmpPI(q, ir.PTCT, 0, ir.PTNone, ir.CmpEQ, one, 1).Guard = p
	// Make p false, then try to clear q with a guarded ct: must NOT
	// write (guard false), so q stays true.
	f.CmpPI(p, ir.PTUT, 0, ir.PTNone, ir.CmpNE, zero, 0)
	f.CmpPI(q, ir.PTCT, 0, ir.PTNone, ir.CmpNE, one, 1).Guard = p
	f.MovI(y, 77).Guard = q
	f.Ret(y)
	pb.SetEntry("main")
	res, err := Run(pb.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 77 {
		t.Fatalf("ret = %d, want 77 (ct under false guard must not write)", res.Ret)
	}
}

func TestGuardedJumpAndBranch(t *testing.T) {
	// A guarded jump transfers only when its predicate holds.
	build := func(x int64) *ir.Program {
		pb := irbuild.NewProgram(16 << 10)
		f := pb.Func("main", 0, true)
		f.Block("entry")
		xr := f.Const(x)
		p := f.F.NewPred()
		f.CmpPI(p, ir.PTUT, 0, ir.PTNone, ir.CmpLT, xr, 0)
		f.Jump("negpath").Guard = p
		f.Block("pospath")
		a := f.Const(100)
		f.Ret(a)
		f.Block("negpath")
		b := f.Const(-100)
		f.Ret(b)
		pb.SetEntry("main")
		return pb.MustBuild()
	}
	for _, c := range []struct{ x, want int64 }{{5, 100}, {-5, -100}} {
		res, err := Run(build(c.x), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != c.want {
			t.Fatalf("x=%d: ret = %d, want %d", c.x, res.Ret, c.want)
		}
	}
}

func TestCallDepthLimit(t *testing.T) {
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, true)
	f.Block("entry")
	r := f.Reg()
	f.Call(r, "main") // infinite recursion
	f.Ret(r)
	pb.SetEntry("main")
	if _, err := Run(pb.MustBuild(), Options{MaxDepth: 16}); err == nil {
		t.Fatal("expected call-depth error")
	}
}

// TestOpLimitAcrossCalls pins where the op limit stops a run whose
// loop block calls out before its own last ops: the limit counts ops as
// they execute, so the run of 32 ops fails under any smaller MaxOps,
// naming the function of the first op past the limit.
func TestOpLimitAcrossCalls(t *testing.T) {
	pb := irbuild.NewProgram(64)
	h := pb.Func("h", 1, true)
	h.Block("e")
	x := h.Reg()
	h.AddI(x, h.Param(0), 1)
	h.AddI(x, x, 1)
	h.Ret(x)
	f := pb.Func("main", 0, true)
	f.Block("e")
	a := f.Const(3)
	i := f.Const(0)
	f.Block("loop")
	d := f.Reg()
	f.Call(d, "h", a)
	f.Add(a, a, d)
	f.AddI(i, i, 1)
	f.BrI(ir.CmpLT, i, 4, "loop")
	f.AddI(a, a, 7)
	f.Block("out")
	f.Ret(a)
	pb.SetEntry("main")
	prog := pb.MustBuild()

	// owner[k] is the function that executes op k+1.
	owner := []string{"main", "main"}
	for j := 0; j < 4; j++ {
		owner = append(owner, "main", "h", "h", "h", "main", "main", "main")
	}
	owner = append(owner, "main", "main")
	total := int64(len(owner))
	for lim := int64(1); lim <= total; lim++ {
		res, err := Run(prog, Options{MaxOps: lim})
		if lim == total {
			if err != nil || res.Ops != total {
				t.Fatalf("MaxOps %d: %v, want a run of %d ops", lim, err, total)
			}
			continue
		}
		want := "interp: op limit exceeded in " + owner[lim]
		if err == nil || err.Error() != want {
			t.Fatalf("MaxOps %d: error %v, want %q", lim, err, want)
		}
	}
}

func TestStoreOutOfRangeFaults(t *testing.T) {
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 0, false)
	f.Block("entry")
	a := f.Const(1 << 20)
	v := f.Const(7)
	f.StW(a, 0, v)
	f.Ret(0)
	pb.SetEntry("main")
	if _, err := Run(pb.MustBuild(), Options{}); err == nil {
		t.Fatal("expected fault for out-of-range store")
	}
}

func TestGuardedStoreSkipped(t *testing.T) {
	// A store whose guard is false must not touch memory (even with a
	// wild address).
	pb := irbuild.NewProgram(16 << 10)
	g := pb.Global("g", 8, nil)
	f := pb.Func("main", 0, true)
	f.Block("entry")
	base := f.Const(g)
	bad := f.Const(1 << 20)
	v := f.Const(42)
	zero := f.Const(0)
	p := f.F.NewPred()
	f.CmpPI(p, ir.PTUT, 0, ir.PTNone, ir.CmpNE, zero, 0) // false
	f.StW(bad, 0, v).Guard = p
	f.StW(base, 0, v)
	d := f.Reg()
	f.LdW(d, base, 0)
	f.Ret(d)
	pb.SetEntry("main")
	res, err := Run(pb.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 42 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestSelOpcode(t *testing.T) {
	build := func(c int64) *ir.Program {
		pb := irbuild.NewProgram(16 << 10)
		f := pb.Func("main", 0, true)
		f.Block("entry")
		cond := f.Const(c)
		a := f.Const(11)
		b := f.Const(22)
		d := f.Reg()
		f.Sel(d, cond, a, b)
		f.Ret(d)
		pb.SetEntry("main")
		return pb.MustBuild()
	}
	for _, c := range []struct{ c, want int64 }{{0, 22}, {1, 11}, {-3, 11}} {
		res, err := Run(build(c.c), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != c.want {
			t.Fatalf("sel(%d) = %d, want %d", c.c, res.Ret, c.want)
		}
	}
}

func TestCmpWOpcode(t *testing.T) {
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 1, true)
	f.Block("entry")
	d := f.Reg()
	f.CmpWI(ir.CmpGE, d, f.Param(0), 10)
	f.Ret(d)
	pb.SetEntry("main")
	p := pb.MustBuild()
	for _, c := range []struct{ x, want int64 }{{9, 0}, {10, 1}, {11, 1}} {
		res, err := Run(p, Options{EntryArgs: []int64{c.x}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != c.want {
			t.Fatalf("cmpw(%d) = %d, want %d", c.x, res.Ret, c.want)
		}
	}
}

func TestSaturatingIntrinsics(t *testing.T) {
	pb := irbuild.NewProgram(16 << 10)
	f := pb.Func("main", 2, true)
	f.Block("entry")
	d := f.Reg()
	f.SAdd16(d, f.Param(0), f.Param(1))
	e := f.Reg()
	f.SSub32(e, d, f.Param(1))
	f.Add(d, d, e)
	f.Ret(d)
	pb.SetEntry("main")
	p := pb.MustBuild()
	res, err := Run(p, Options{EntryArgs: []int64{30000, 10000}})
	if err != nil {
		t.Fatal(err)
	}
	// sadd16(30000,10000) = 32767; ssub32(32767,10000) = 22767.
	if res.Ret != 32767+22767 {
		t.Fatalf("ret = %d", res.Ret)
	}
}
