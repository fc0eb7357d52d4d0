// Package sim is the functional stand-in for the paper's FPGA
// emulation (Section II): a cycle-counted simulator of the waferscale
// processor's software-visible architecture — tiles of 14 simple
// in-order cores with 64 KiB private SRAM each, a memory chiplet of
// five 128 KiB banks per tile, an intra-tile crossbar with per-bank
// contention, and the unified global shared memory carried over the
// dual-DoR waferscale network (internal/noc).
//
// All memory — private SRAM, banks, and the shadow windows of tiles
// killed at runtime — is zero-initialised and materialised per 4 KiB
// page on first write (mem.go): a read of a never-written word returns
// 0, and a machine costs host memory only for the pages it wrote.
//
// The cores execute WS-ISA, a small 32-bit load/store ISA (the ARM
// Cortex-M3 of the prototype is replaced per the reproduction's
// substitution rule; the architectural claims being validated — unified
// shared memory, remote-access latency, network behaviour under load —
// do not depend on the core's instruction set). The package includes an
// assembler so the graph workloads the paper ran (BFS, SSSP) are
// written as actual WS-ISA programs.
package sim

import "fmt"

// Op is a WS-ISA opcode.
type Op uint8

// The WS-ISA instruction set. Encoding (32 bits):
//
//	[31:24] opcode  [23:20] rd  [19:16] rs1  [15:12] rs2  [11:0] imm12 (signed)
//
// except OpLI/OpLUI, which use [15:0] as a 16-bit immediate.
const (
	OpNop Op = iota
	OpHalt
	OpLI     // rd = signext(imm16)
	OpLUI    // rd = imm16 << 16
	OpAdd    // rd = rs1 + rs2
	OpSub    // rd = rs1 - rs2
	OpMul    // rd = rs1 * rs2
	OpAnd    // rd = rs1 & rs2
	OpOr     // rd = rs1 | rs2
	OpXor    // rd = rs1 ^ rs2
	OpShl    // rd = rs1 << (rs2 & 31)
	OpShr    // rd = rs1 >> (rs2 & 31) (logical)
	OpSlt    // rd = 1 if int32(rs1) < int32(rs2) else 0
	OpSltu   // rd = 1 if rs1 < rs2 (unsigned) else 0
	OpAddi   // rd = rs1 + signext(imm12)
	OpLw     // rd = mem32[rs1 + signext(imm12)]
	OpSw     // mem32[rs1 + signext(imm12)] = rs2
	OpBeq    // if rs1 == rs2: pc += signext(imm12)*4
	OpBne    // if rs1 != rs2: pc += signext(imm12)*4
	OpBlt    // if int32(rs1) < int32(rs2): pc += signext(imm12)*4
	OpBge    // if int32(rs1) >= int32(rs2): pc += signext(imm12)*4
	OpJal    // rd = pc+4; pc += signext(imm12)*4
	OpJr     // pc = rs1
	OpAmoAdd // rd = mem32[rs1]; mem32[rs1] += rs2 (atomic)
	OpAmoMin // rd = mem32[rs1]; mem32[rs1] = min(int32) (atomic)
	OpCoreID // rd = global core id (tileIndex*coresPerTile + coreInTile)
	OpNCores // rd = total core count
	OpOrLo   // rd = rd | (imm16 & 0xFFFF); pairs with OpLUI for 32-bit constants
	opCount
)

var opNames = [...]string{
	"nop", "halt", "li", "lui", "add", "sub", "mul", "and", "or", "xor",
	"shl", "shr", "slt", "sltu", "addi", "lw", "sw", "beq", "bne", "blt",
	"bge", "jal", "jr", "amoadd", "amomin", "coreid", "ncores", "orlo",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

// Instr is a decoded instruction.
type Instr struct {
	Op  Op
	Rd  int
	Rs1 int
	Rs2 int
	Imm int32 // sign-extended imm12, or imm16 for LI/LUI
}

// Encode packs the instruction into a word.
func (i Instr) Encode() uint32 {
	w := uint32(i.Op) << 24
	w |= uint32(i.Rd&0xF) << 20
	if i.Op == OpLI || i.Op == OpLUI || i.Op == OpOrLo {
		w |= uint32(uint16(i.Imm))
		return w
	}
	w |= uint32(i.Rs1&0xF) << 16
	w |= uint32(i.Rs2&0xF) << 12
	w |= uint32(i.Imm) & 0xFFF
	return w
}

// Decode unpacks a word.
func Decode(w uint32) Instr {
	op := Op(w >> 24)
	in := Instr{Op: op, Rd: int(w >> 20 & 0xF)}
	if op == OpLI || op == OpLUI || op == OpOrLo {
		// All three carry a 16-bit immediate; LI sign-extends at
		// execution, LUI shifts the raw low 16 bits up, OrLo ORs them in.
		in.Imm = int32(int16(w & 0xFFFF))
		return in
	}
	in.Rs1 = int(w >> 16 & 0xF)
	in.Rs2 = int(w >> 12 & 0xF)
	imm := int32(w & 0xFFF)
	if imm&0x800 != 0 {
		imm |= ^int32(0xFFF)
	}
	in.Imm = imm
	return in
}

// String disassembles the instruction.
func (i Instr) String() string {
	switch i.Op {
	case OpNop, OpHalt:
		return i.Op.String()
	case OpLI, OpLUI, OpOrLo:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Rd, i.Imm)
	case OpAddi:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rd, i.Rs1, i.Imm)
	case OpLw:
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rd, i.Imm, i.Rs1)
	case OpSw:
		return fmt.Sprintf("%s r%d, %d(r%d)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s r%d, r%d, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case OpJal:
		return fmt.Sprintf("%s r%d, %d", i.Op, i.Rd, i.Imm)
	case OpJr:
		return fmt.Sprintf("%s r%d", i.Op, i.Rs1)
	case OpAmoAdd, OpAmoMin:
		return fmt.Sprintf("%s r%d, r%d, (r%d)", i.Op, i.Rd, i.Rs2, i.Rs1)
	case OpCoreID, OpNCores:
		return fmt.Sprintf("%s r%d", i.Op, i.Rd)
	}
	return fmt.Sprintf("%s r%d, r%d, r%d", i.Op, i.Rd, i.Rs1, i.Rs2)
}
