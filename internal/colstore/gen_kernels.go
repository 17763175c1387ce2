//go:build ignore

// gen_kernels writes kernels_gen.go: for every delta width 1..32 a
// straight-line decoder, a straight-line encoder and a straight-line range
// compare over the 64 values packed into that many words. Run it with `go generate ./internal/colstore`
// (or `make generate`); CI fails when the committed file differs from its
// output.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

// maxWidth is the widest delta that gets generated kernels. Wider blocks are
// rare enough (none in the repository benchmark's tables) that the generic
// bit loop serves them.
const maxWidth = 32

// lane returns the expression for the k-th w-bit delta of the packed words
// in[0..w), and the index of the highest word it reads.
func lane(k, w int) (expr string, last int) {
	pos := k * w
	wi, off := pos/64, pos%64
	mask := fmt.Sprintf("%#x", uint64(1)<<w-1)
	switch {
	case off == 0:
		return fmt.Sprintf("w%d&%s", wi, mask), wi
	case off+w == 64:
		return fmt.Sprintf("w%d>>%d", wi, off), wi
	case off+w < 64:
		return fmt.Sprintf("w%d>>%d&%s", wi, off, mask), wi
	default:
		return fmt.Sprintf("(w%d>>%d|w%d<<%d)&%s", wi, off, wi+1, 64-off, mask), wi + 1
	}
}

// loadThrough emits the word loads up to index last that have not been
// emitted yet, so each word is read once, just before its first use.
func loadThrough(buf *bytes.Buffer, loaded *int, last int) {
	for ; *loaded <= last; *loaded++ {
		fmt.Fprintf(buf, "\tw%d := in[%d]\n", *loaded, *loaded)
	}
}

func genUnpack(buf *bytes.Buffer, w int) {
	fmt.Fprintf(buf, "func unpack64w%d(in []uint64, out []int64, minV int64) {\n", w)
	fmt.Fprintf(buf, "\t_ = in[%d]\n\t_ = out[63]\n", w-1)
	loaded := 0
	for k := 0; k < 64; k++ {
		expr, last := lane(k, w)
		loadThrough(buf, &loaded, last)
		fmt.Fprintf(buf, "\tout[%d] = minV + int64(%s)\n", k, expr)
	}
	buf.WriteString("}\n\n")
}

// genPack emits the encoder, unpack64wN's inverse: word j is the OR of the
// lanes that overlap it, each lane's delta computed once, shifted up into the
// word it starts in and down into the word it spills over into. A block's
// deltas fit its width, so no lane is masked.
func genPack(buf *bytes.Buffer, w int) {
	fmt.Fprintf(buf, "func pack64w%d(in []int64, out []uint64, minV int64) {\n", w)
	fmt.Fprintf(buf, "\t_ = in[63]\n\t_ = out[%d]\n\tm := uint64(minV)\n", w-1)
	next := 0 // the next lane whose delta is not yet computed
	for j := 0; j < w; j++ {
		var terms []string
		for k := (64 * j) / w; k < 64 && k*w < 64*(j+1); k++ {
			for ; next <= k; next++ {
				fmt.Fprintf(buf, "\td%d := uint64(in[%d]) - m\n", next, next)
			}
			switch pos := k * w; {
			case pos == 64*j:
				terms = append(terms, fmt.Sprintf("d%d", k))
			case pos > 64*j:
				terms = append(terms, fmt.Sprintf("d%d<<%d", k, pos-64*j))
			case pos+w > 64*j:
				terms = append(terms, fmt.Sprintf("d%d>>%d", k, 64*j-pos))
			}
		}
		fmt.Fprintf(buf, "\tout[%d] = %s\n", j, strings.Join(terms, " | "))
	}
	buf.WriteString("}\n\n")
}

// cmpGroup is the number of lanes a compare kernel evaluates per basic block.
// The compiler schedules every flag-producing subtract of a block after all
// of its other arithmetic, so one 64-lane block would compute and spill 64
// operands before the first compare; eight fit in registers. The block
// boundary earns its keep: a group with no survivor left in sel is skipped.
const cmpGroup = 8

// genCmp emits the compare kernel. Lane k is out of range exactly when
// span - (delta+off) borrows; the borrow is shifted into the group's
// accumulator as the carry of g+g, which the compiler fuses into SUB/ADC
// with no flag materialisation. Lanes go in from the group's highest down so
// lane k lands on bit k.
func genCmp(buf *bytes.Buffer, w int) {
	fmt.Fprintf(buf, "func cmp64w%d(in []uint64, sel, off, span uint64) uint64 {\n", w)
	fmt.Fprintf(buf, "\t_ = in[%d]\n", w-1)
	buf.WriteString("\tvar out, g, b uint64\n")
	for lo := 0; lo < 64; lo += cmpGroup {
		fmt.Fprintf(buf, "\tif sel&%#x != 0 {\n", uint64(1<<cmpGroup-1)<<lo)
		for i := lo * w / 64; i <= ((lo+cmpGroup)*w-1)/64; i++ {
			fmt.Fprintf(buf, "\t\tw%d := in[%d]\n", i, i)
		}
		buf.WriteString("\t\tg = 0\n")
		for k := lo + cmpGroup - 1; k >= lo; k-- {
			expr, _ := lane(k, w)
			fmt.Fprintf(buf, "\t\t_, b = bits.Sub64(span, (%s)+off, 0)\n", expr)
			buf.WriteString("\t\tg, _ = bits.Add64(g, g, b)\n")
		}
		fmt.Fprintf(buf, "\t\tout |= g << %d\n\t}\n", lo)
	}
	buf.WriteString("\treturn sel &^ out\n}\n\n")
}

// genDispatch emits the width switch over one kernel family.
func genDispatch(buf *bytes.Buffer, doc, sig, ret, call string) {
	fmt.Fprintf(buf, "// %s\nfunc %s {\n\tswitch w {\n", doc, sig)
	for w := 1; w <= maxWidth; w++ {
		fmt.Fprintf(buf, "\tcase %d:\n\t\t%s"+call+"\n", w, ret, w)
	}
	buf.WriteString("\tdefault:\n\t\tpanic(\"colstore: no kernel for this delta width\")\n\t}\n}\n\n")
}

func main() {
	var buf bytes.Buffer
	buf.WriteString(`// Code generated by gen_kernels.go; DO NOT EDIT.

//go:build !floodscalar

package colstore

import "math/bits"

`)
	fmt.Fprintf(&buf, `// maxKernelWidth is the widest delta with generated kernels; unpack64,
// pack64 and cmp64 accept widths 1..maxKernelWidth.
const maxKernelWidth = %d

`, maxWidth)
	// The dispatchers are switches, not tables of function values: a call
	// through a function value makes its slice arguments escape, which would
	// move every caller's stack decode buffer to the heap.
	genDispatch(&buf, "unpack64 decodes the 64 w-bit deltas packed in in[:w] into out[:64], adding minV.",
		"unpack64(w uint, in []uint64, out []int64, minV int64)", "", "unpack64w%d(in, out, minV)")
	genDispatch(&buf, "pack64 packs the w-bit deltas of in[:64] from minV, which must all fit w bits, into out[:w].",
		"pack64(w uint, in []int64, out []uint64, minV int64)", "", "pack64w%d(in, out, minV)")
	genDispatch(&buf, "cmp64 returns sel minus the lanes k whose w-bit delta in in[:w] has delta+off > span\n// (wrapping add): the survivors of the range predicate among the 64 rows.",
		"cmp64(w uint, in []uint64, sel, off, span uint64) uint64", "return ", "cmp64w%d(in, sel, off, span)")
	for w := 1; w <= maxWidth; w++ {
		genUnpack(&buf, w)
		genPack(&buf, w)
		genCmp(&buf, w)
	}
	src, err := format.Source(buf.Bytes())
	if err != nil {
		log.Fatalf("gen_kernels: %v", err)
	}
	if err := os.WriteFile("kernels_gen.go", src, 0o644); err != nil {
		log.Fatalf("gen_kernels: %v", err)
	}
}
