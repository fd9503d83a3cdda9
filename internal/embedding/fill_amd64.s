#include "textflag.h"

// The lane numbers of one block: element e of the row hashes base ^ e.
DATA fillLanes<>+0(SB)/8, $0
DATA fillLanes<>+8(SB)/8, $1
DATA fillLanes<>+16(SB)/8, $2
DATA fillLanes<>+24(SB)/8, $3
DATA fillLanes<>+32(SB)/8, $4
DATA fillLanes<>+40(SB)/8, $5
DATA fillLanes<>+48(SB)/8, $6
DATA fillLanes<>+56(SB)/8, $7
GLOBL fillLanes<>(SB), RODATA|NOPTR, $64

// func fillAVX512(dst []float32, base uint64)
TEXT ·fillAVX512(SB), NOSPLIT, $0-32
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	SHRQ $3, CX
	JZ   done

	VPBROADCASTQ base+24(FP), Z0     // base
	VMOVDQU64    fillLanes<>(SB), Z1 // e, the eight lanes' element numbers
	MOVQ         $8, AX
	VPBROADCASTQ AX, Z2              // one block's step of e
	MOVQ         $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, Z3
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z4
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z5
	VPXORQ       Z6, Z6, Z6          // zero, VPSADBW's other operand
	MOVQ         $241, AX
	VPBROADCASTQ AX, Z7              // s/17 == s*241>>12 for every byte sum s <= 2040
	MOVQ         $17, AX
	VPBROADCASTQ AX, Z8
	MOVL         $0x41000000, AX
	VPBROADCASTD AX, Y9              // 8.0

loop:
	// h = splitmix64(base ^ e)
	VPXORQ  Z0, Z1, Z10
	VPADDQ  Z3, Z10, Z10
	VPSRLQ  $30, Z10, Z11
	VPXORQ  Z11, Z10, Z10
	VPMULLQ Z4, Z10, Z10
	VPSRLQ  $27, Z10, Z11
	VPXORQ  Z11, Z10, Z10
	VPMULLQ Z5, Z10, Z10
	VPSRLQ  $31, Z10, Z11
	VPXORQ  Z11, Z10, Z10

	// h % 17 == s % 17 for s the sum of h's eight bytes, since 256 % 17 == 1
	VPSADBW  Z6, Z10, Z10
	VPMULUDQ Z7, Z10, Z11
	VPSRLQ   $12, Z11, Z11
	VPMULUDQ Z8, Z11, Z11
	VPSUBQ   Z11, Z10, Z10

	// float32(h % 17) - 8
	VCVTQQ2PS Z10, Y10
	VSUBPS    Y9, Y10, Y10
	VMOVUPS   Y10, (DI)

	ADDQ   $32, DI
	VPADDQ Z2, Z1, Z1
	DECQ   CX
	JNZ    loop
	VZEROUPPER

done:
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
