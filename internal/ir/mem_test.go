package ir

import (
	"strings"
	"testing"
)

// TestMemAccess pins the memory semantics every executor shares:
// little-endian order, sign or zero extension by opcode, stores that
// keep only their width's low bytes, and accesses that must lie wholly
// inside memory.
func TestMemAccess(t *testing.T) {
	mem := make([]byte, 8)
	if err := Store(mem, OpStW, 0, 0x1_8081_82F3); err != nil {
		t.Fatal(err)
	}
	if err := Store(mem, OpStH, 4, -2); err != nil {
		t.Fatal(err)
	}
	if err := Store(mem, OpStB, 6, 0x17F); err != nil {
		t.Fatal(err)
	}
	if want := []byte{0xF3, 0x82, 0x81, 0x80, 0xFE, 0xFF, 0x7F, 0}; string(mem) != string(want) {
		t.Fatalf("memory % x, want % x", mem, want)
	}
	loads := []struct {
		opc  Opcode
		addr int64
		want int64
	}{
		{OpLdW, 0, int64(int32(-0x7F7E7D0D))},
		{OpLdH, 0, int64(int16(-0x7D0D))},
		{OpLdHU, 0, 0x82F3},
		{OpLdB, 0, -13},
		{OpLdBU, 0, 0xF3},
		{OpLdH, 4, -2},
		{OpLdB, 6, 0x7F},
	}
	for _, c := range loads {
		if v, err := Load(mem, c.opc, c.addr); err != nil || v != c.want {
			t.Errorf("%s @%d = %d, %v; want %d", c.opc, c.addr, v, err, c.want)
		}
	}
	for _, c := range []struct {
		opc  Opcode
		addr int64
	}{{OpLdW, 5}, {OpStH, 7}, {OpLdB, 8}, {OpStB, -1}} {
		err := CheckAccess(mem, c.opc, c.addr)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("CheckAccess(%s @%d) = %v, want out of range", c.opc, c.addr, err)
		}
		if c.opc == OpLdW || c.opc == OpLdB {
			if _, lerr := Load(mem, c.opc, c.addr); lerr == nil {
				t.Errorf("Load(%s @%d) succeeded", c.opc, c.addr)
			}
		} else if serr := Store(mem, c.opc, c.addr, 0); serr == nil {
			t.Errorf("Store(%s @%d) succeeded", c.opc, c.addr)
		}
	}
	if err := CheckAccess(mem, OpLdW, 4); err != nil {
		t.Errorf("CheckAccess of the last word: %v", err)
	}
}
