//go:build !floodscalar && !purego

#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5), the CPU has AVX
// and XSAVE enabled by the OS (leaf 1, ECX bits 28 and 27), and XCR0 says the
// OS saves both the XMM and the YMM halves of the registers (bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   done
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// func cmpBlockAVX2(words *uint64, tab *[64]byte, w uint64, sel *BlockBitmap, lo, rng, mask uint32)
//
// One full block of w-bit deltas, 1 <= w <= 25: group g — eight deltas,
// exactly w bytes — starts at byte g*w, and sel, read as 16 bytes, holds
// group g's eight selection bits in byte g. Lanes 0..3 come out of the 16
// bytes at the group, lanes 4..7 out of the 16 bytes w/2 further in; tab
// holds the byte shuffle that brings each lane's four bytes into its dword
// and the eight right shifts that bring the delta's first bit to bit 0.
// A lane survives when delta-lo <= rng, unsigned. The last group's second
// load ends up to 15 bytes past the block's 16*w: the caller guarantees 16
// readable bytes there (vectorOverread).
TEXT ·cmpBlockAVX2(SB), NOSPLIT, $0-44
	MOVQ         words+0(FP), SI
	MOVQ         tab+8(FP), DX
	MOVQ         w+16(FP), CX
	MOVQ         sel+24(FP), DI
	MOVL         lo+32(FP), AX
	VMOVD        AX, X4
	VPBROADCASTD X4, Y4
	MOVL         rng+36(FP), AX
	VMOVD        AX, X5
	VPBROADCASTD X5, Y5
	MOVL         mask+40(FP), AX
	VMOVD        AX, X6
	VPBROADCASTD X6, Y6
	VMOVDQU      (DX), Y2
	VMOVDQU      32(DX), Y3
	MOVQ         CX, BX
	SHRQ         $1, BX
	ADDQ         SI, BX
	XORQ         R8, R8

group:
	MOVBLZX     (DI)(R8*1), AX
	TESTL       AX, AX
	JZ          next                // no survivor left among these eight rows
	VMOVDQU     (SI), X0
	VINSERTI128 $1, (BX), Y0, Y0
	VPSHUFB     Y2, Y0, Y0
	VPSRLVD     Y3, Y0, Y0
	VPAND       Y6, Y0, Y0
	VPSUBD      Y4, Y0, Y0
	VPMINUD     Y5, Y0, Y1
	VPCMPEQD    Y1, Y0, Y0
	VMOVMSKPS   Y0, R9
	ANDL        R9, AX
	MOVB        AX, (DI)(R8*1)

next:
	ADDQ CX, SI
	ADDQ CX, BX
	INCQ R8
	CMPQ R8, $16
	JNE  group
	VZEROUPPER
	RET
