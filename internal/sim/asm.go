package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates WS-ISA assembly into machine words. The syntax is
// line-oriented:
//
//	; comment
//	label:
//	    li   r1, 42
//	    lui  r2, 0x8000        ; upper immediate
//	    add  r3, r1, r2
//	    lw   r4, 8(r3)
//	    sw   r4, 0(r3)
//	    beq  r1, r2, label     ; branches take label or numeric offset
//	    amoadd r5, r1, (r3)    ; r5 = old mem[r3]; mem[r3] += r1
//	    halt
//
// Labels resolve to PC-relative word offsets for branches and jal.
// Constants accept decimal, hex (0x...), and character forms. The
// pseudo-instruction `la rd, imm32` expands to lui+addi-style pairs.
func Assemble(src string) ([]uint32, error) {
	type pending struct {
		line  int
		instr Instr
		label string // branch target to resolve
		pc    int    // word index of the instruction
	}
	var prog []pending
	labels := map[string]int{}

	lineNo := 0
	for _, raw := range strings.Split(src, "\n") {
		lineNo++
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels, possibly followed by code on the same line.
		for {
			if i := strings.IndexByte(line, ':'); i >= 0 && !strings.ContainsAny(line[:i], " \t,") {
				name := line[:i]
				if _, dup := labels[name]; dup {
					return nil, fmt.Errorf("asm line %d: duplicate label %q", lineNo, name)
				}
				labels[name] = len(prog)
				line = strings.TrimSpace(line[i+1:])
				continue
			}
			break
		}
		if line == "" {
			continue
		}
		fields := strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
		if len(fields) == 0 {
			return nil, fmt.Errorf("asm line %d: separators with no instruction", lineNo)
		}
		mn := strings.ToLower(fields[0])
		args := fields[1:]

		// Pseudo-instruction: la rd, imm32 -> lui + ori-style addi.
		if mn == "la" {
			if len(args) != 2 {
				return nil, fmt.Errorf("asm line %d: la needs rd, imm", lineNo)
			}
			rd, err := parseReg(args[0])
			if err != nil {
				return nil, fmt.Errorf("asm line %d: %v", lineNo, err)
			}
			v, err := parseImm(args[1])
			if err != nil {
				return nil, fmt.Errorf("asm line %d: %v", lineNo, err)
			}
			u := uint32(v)
			hi := u >> 16
			lo := u & 0xFFFF
			// la rd, imm32 expands to lui (upper half) + orlo (lower).
			prog = append(prog, pending{line: lineNo, pc: len(prog), instr: Instr{Op: OpLUI, Rd: rd, Imm: int32(hi)}})
			if lo != 0 {
				prog = append(prog, pending{line: lineNo, pc: len(prog), instr: Instr{Op: OpOrLo, Rd: rd, Imm: int32(lo)}})
			}
			continue
		}

		op, spec, err := lookupOp(mn)
		if err != nil {
			return nil, fmt.Errorf("asm line %d: %v", lineNo, err)
		}
		p := pending{line: lineNo, pc: len(prog), instr: Instr{Op: op}}
		if err := parseArgs(&p.instr, &p.label, spec, args); err != nil {
			return nil, fmt.Errorf("asm line %d (%s): %v", lineNo, mn, err)
		}
		prog = append(prog, p)
	}

	words := make([]uint32, len(prog))
	for i, p := range prog {
		if p.label != "" {
			target, ok := labels[p.label]
			if !ok {
				return nil, fmt.Errorf("asm line %d: undefined label %q", p.line, p.label)
			}
			off := target - (p.pc + 1)
			if off < -2048 || off > 2047 {
				return nil, fmt.Errorf("asm line %d: branch to %q out of range (%d words)", p.line, p.label, off)
			}
			p.instr.Imm = int32(off)
		}
		words[i] = p.instr.Encode()
	}
	return words, nil
}

// argSpec describes an instruction's operand shape.
type argSpec int

const (
	argsNone   argSpec = iota // halt, nop
	argsRI                    // li/lui rd, imm16
	argsRRR                   // add rd, rs1, rs2
	argsRRI                   // addi rd, rs1, imm
	argsMem                   // lw rd, off(rs1) / sw rs2, off(rs1)
	argsBranch                // beq rs1, rs2, label
	argsJal                   // jal rd, label
	argsR                     // jr rs1 / coreid rd / ncores rd
	argsAmo                   // amoadd rd, rs2, (rs1)
)

func lookupOp(mn string) (Op, argSpec, error) {
	switch mn {
	case "nop":
		return OpNop, argsNone, nil
	case "halt":
		return OpHalt, argsNone, nil
	case "li":
		return OpLI, argsRI, nil
	case "lui":
		return OpLUI, argsRI, nil
	case "add":
		return OpAdd, argsRRR, nil
	case "sub":
		return OpSub, argsRRR, nil
	case "mul":
		return OpMul, argsRRR, nil
	case "and":
		return OpAnd, argsRRR, nil
	case "or":
		return OpOr, argsRRR, nil
	case "xor":
		return OpXor, argsRRR, nil
	case "shl":
		return OpShl, argsRRR, nil
	case "shr":
		return OpShr, argsRRR, nil
	case "slt":
		return OpSlt, argsRRR, nil
	case "sltu":
		return OpSltu, argsRRR, nil
	case "addi":
		return OpAddi, argsRRI, nil
	case "lw":
		return OpLw, argsMem, nil
	case "sw":
		return OpSw, argsMem, nil
	case "beq":
		return OpBeq, argsBranch, nil
	case "bne":
		return OpBne, argsBranch, nil
	case "blt":
		return OpBlt, argsBranch, nil
	case "bge":
		return OpBge, argsBranch, nil
	case "jal":
		return OpJal, argsJal, nil
	case "jr":
		return OpJr, argsR, nil
	case "amoadd":
		return OpAmoAdd, argsAmo, nil
	case "amomin":
		return OpAmoMin, argsAmo, nil
	case "coreid":
		return OpCoreID, argsR, nil
	case "ncores":
		return OpNCores, argsR, nil
	case "orlo":
		return OpOrLo, argsRI, nil
	}
	return 0, 0, fmt.Errorf("unknown mnemonic %q", mn)
}

func parseArgs(in *Instr, label *string, spec argSpec, args []string) error {
	need := map[argSpec]int{
		argsNone: 0, argsRI: 2, argsRRR: 3, argsRRI: 3,
		argsMem: 2, argsBranch: 3, argsJal: 2, argsR: 1, argsAmo: 3,
	}[spec]
	if len(args) != need {
		return fmt.Errorf("want %d operands, got %d", need, len(args))
	}
	var err error
	switch spec {
	case argsNone:
	case argsRI:
		if in.Rd, err = parseReg(args[0]); err != nil {
			return err
		}
		v, err := parseImm(args[1])
		if err != nil {
			return err
		}
		if v < -32768 || v > 65535 {
			return fmt.Errorf("immediate %d out of 16-bit range", v)
		}
		in.Imm = int32(v)
	case argsRRR:
		if in.Rd, err = parseReg(args[0]); err != nil {
			return err
		}
		if in.Rs1, err = parseReg(args[1]); err != nil {
			return err
		}
		if in.Rs2, err = parseReg(args[2]); err != nil {
			return err
		}
	case argsRRI:
		if in.Rd, err = parseReg(args[0]); err != nil {
			return err
		}
		if in.Rs1, err = parseReg(args[1]); err != nil {
			return err
		}
		v, err := parseImm(args[2])
		if err != nil {
			return err
		}
		if v < -2048 || v > 2047 {
			return fmt.Errorf("immediate %d out of 12-bit range", v)
		}
		in.Imm = int32(v)
	case argsMem:
		// lw rd, off(rs1)  |  sw rs2, off(rs1)
		reg, err := parseReg(args[0])
		if err != nil {
			return err
		}
		off, base, err := parseMemOperand(args[1])
		if err != nil {
			return err
		}
		if in.Op == OpLw {
			in.Rd = reg
		} else {
			in.Rs2 = reg
		}
		in.Rs1 = base
		in.Imm = off
	case argsBranch:
		if in.Rs1, err = parseReg(args[0]); err != nil {
			return err
		}
		if in.Rs2, err = parseReg(args[1]); err != nil {
			return err
		}
		if v, err := parseImm(args[2]); err == nil {
			in.Imm = int32(v)
		} else {
			*label = args[2]
		}
	case argsJal:
		if in.Rd, err = parseReg(args[0]); err != nil {
			return err
		}
		if v, err := parseImm(args[1]); err == nil {
			in.Imm = int32(v)
		} else {
			*label = args[1]
		}
	case argsR:
		r, err := parseReg(args[0])
		if err != nil {
			return err
		}
		if in.Op == OpJr {
			in.Rs1 = r
		} else {
			in.Rd = r
		}
	case argsAmo:
		// amoadd rd, rs2, (rs1)
		if in.Rd, err = parseReg(args[0]); err != nil {
			return err
		}
		if in.Rs2, err = parseReg(args[1]); err != nil {
			return err
		}
		addr := strings.TrimSuffix(strings.TrimPrefix(args[2], "("), ")")
		if in.Rs1, err = parseReg(addr); err != nil {
			return err
		}
	}
	return nil
}

func parseReg(s string) (int, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 15 {
		return 0, fmt.Errorf("bad register %q (r0-r15)", s)
	}
	return n, nil
}

func parseImm(s string) (int64, error) {
	s = strings.TrimSpace(s)
	return strconv.ParseInt(s, 0, 64)
}

// parseMemOperand splits "off(rN)".
func parseMemOperand(s string) (off int32, base int, err error) {
	i := strings.IndexByte(s, '(')
	if i < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q, want off(rN)", s)
	}
	offStr := s[:i]
	if offStr == "" {
		offStr = "0"
	}
	v, err := parseImm(offStr)
	if err != nil {
		return 0, 0, err
	}
	if v < -2048 || v > 2047 {
		return 0, 0, fmt.Errorf("offset %d out of 12-bit range", v)
	}
	base, err = parseReg(s[i+1 : len(s)-1])
	return int32(v), base, err
}
