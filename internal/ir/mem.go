package ir

import (
	"encoding/binary"
	"fmt"
)

// Data memory is byte-addressed and little-endian. A load sign- or
// zero-extends the MemWidth bytes it reads; a store writes the low
// MemWidth bytes of its value. The interpreter, the cycle simulator and
// the scheduler's alias analysis all take their memory semantics from
// here.

// MemWidth returns the bytes a load or store opcode accesses: 1 for the
// byte forms, 2 for the halfword forms and 4 for the word forms.
func MemWidth(opc Opcode) int64 {
	switch opc {
	case OpLdB, OpLdBU, OpStB:
		return 1
	case OpLdH, OpLdHU, OpStH:
		return 2
	}
	return 4
}

// accessError is a load or store that does not lie wholly inside
// memory. It is a plain value, not fmt.Errorf's, so that CheckAccess
// and Store stay within the inlining budget of the simulator's per-op
// path.
type accessError struct {
	opc  Opcode
	addr int64
}

func (e *accessError) Error() string {
	return fmt.Sprintf("%s out of range: addr=%d size=%d", e.opc, e.addr, MemWidth(e.opc))
}

func inBounds(mem []byte, opc Opcode, addr int64) bool {
	return addr >= 0 && addr+MemWidth(opc) <= int64(len(mem))
}

// CheckAccess reports an error when the access opc makes at addr does
// not lie wholly inside mem.
func CheckAccess(mem []byte, opc Opcode, addr int64) error {
	if !inBounds(mem, opc, addr) {
		return &accessError{opc, addr}
	}
	return nil
}

// Load returns the value the load opcode opc reads from mem at addr.
func Load(mem []byte, opc Opcode, addr int64) (int64, error) {
	var v int64
	var ok bool
	switch opc {
	case OpLdB:
		v, ok = LoadB(mem, addr)
	case OpLdBU:
		v, ok = LoadBU(mem, addr)
	case OpLdH:
		v, ok = LoadH(mem, addr)
	case OpLdHU:
		v, ok = LoadHU(mem, addr)
	default:
		v, ok = LoadW(mem, addr)
	}
	if !ok {
		return 0, &accessError{opc, addr}
	}
	return v, nil
}

// LoadB, LoadBU, LoadH, LoadHU and LoadW are Load for one width, small
// enough to inline into an executor's op switch (the width load kinds
// of Decode). ok is false when the access does not lie wholly inside
// mem, for which Load gives the error.
func LoadB(mem []byte, addr int64) (v int64, ok bool) {
	if addr < 0 || addr >= int64(len(mem)) {
		return 0, false
	}
	return int64(int8(mem[addr])), true
}

func LoadBU(mem []byte, addr int64) (v int64, ok bool) {
	if addr < 0 || addr >= int64(len(mem)) {
		return 0, false
	}
	return int64(mem[addr]), true
}

func LoadH(mem []byte, addr int64) (v int64, ok bool) {
	if addr < 0 || addr > int64(len(mem))-2 {
		return 0, false
	}
	return int64(int16(binary.LittleEndian.Uint16(mem[addr:]))), true
}

func LoadHU(mem []byte, addr int64) (v int64, ok bool) {
	if addr < 0 || addr > int64(len(mem))-2 {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint16(mem[addr:])), true
}

func LoadW(mem []byte, addr int64) (v int64, ok bool) {
	if addr < 0 || addr > int64(len(mem))-4 {
		return 0, false
	}
	return int64(int32(binary.LittleEndian.Uint32(mem[addr:]))), true
}

// Store writes v to mem at addr as the store opcode opc does.
func Store(mem []byte, opc Opcode, addr, v int64) error {
	if !inBounds(mem, opc, addr) {
		return &accessError{opc, addr}
	}
	switch opc {
	case OpStB:
		mem[addr] = byte(v)
	case OpStH:
		binary.LittleEndian.PutUint16(mem[addr:], uint16(v))
	default:
		binary.LittleEndian.PutUint32(mem[addr:], uint32(v))
	}
	return nil
}
