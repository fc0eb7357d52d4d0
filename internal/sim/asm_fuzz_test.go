package sim

import (
	"strings"
	"testing"
)

// FuzzAssemble feeds the assembler arbitrary source. Invariants: it
// never panics; a rejected program yields a structured "asm line N"
// error; and every word of an accepted program disassembles to text
// that re-assembles to the same word.
func FuzzAssemble(f *testing.F) {
	f.Add("li r1, 3\nhalt")
	f.Add("loop: addi r1, r1, -1\nbne r1, r0, loop\nhalt")
	f.Add("la r2, 0x12345678\nlw r3, 4(r2)\nsw r3, -8(r2)")
	f.Add("amoadd r1, r2, r3 ; comment\namomin r4, r5, r6")
	f.Add("a: b: jal r15, a\njr r15")
	f.Add(", ,\t,")

	f.Fuzz(func(t *testing.T, src string) {
		words, err := Assemble(src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "asm line ") {
				t.Fatalf("unstructured error for %q: %v", src, err)
			}
			return
		}
		for i, w := range words {
			text := Decode(w).String()
			again, err := Assemble(text)
			if err != nil {
				t.Fatalf("word %d (%#08x) disassembles to %q, which does not assemble: %v", i, w, text, err)
			}
			if len(again) != 1 || again[0] != w {
				t.Fatalf("word %d (%#08x) disassembles to %q, which assembles to %#x", i, w, text, again)
			}
		}
	})
}
