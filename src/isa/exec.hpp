#ifndef BOWSIM_ISA_EXEC_HPP
#define BOWSIM_ISA_EXEC_HPP

#include "src/common/types.hpp"
#include "src/isa/instruction.hpp"

/**
 * @file
 * Pure ISA value helpers: wrapping arithmetic, and the ALU opcodes, setp
 * comparisons and special registers as row functions. A row holds one
 * value per lane (index = lane); a row function switches on its opcode
 * once and computes every lane of a span [lo, hi), including lanes the
 * exec mask leaves out, which hold stale values. Every row op is
 * therefore total: no operand value traps or is undefined behaviour.
 * They touch no register file, memory, lock tracker or statistics; the
 * interpreter both execution modes share (src/sim/interpreter.hpp)
 * builds on them and writes back only the exec lanes.
 */

namespace bowsim::exec {

/** Wrapping signed arithmetic via unsigned (overflow is defined). */
inline Word
wrapAdd(Word a, Word b)
{
    return static_cast<Word>(static_cast<std::uint64_t>(a) +
                             static_cast<std::uint64_t>(b));
}

inline Word
wrapSub(Word a, Word b)
{
    return static_cast<Word>(static_cast<std::uint64_t>(a) -
                             static_cast<std::uint64_t>(b));
}

inline Word
wrapMul(Word a, Word b)
{
    return static_cast<Word>(static_cast<std::uint64_t>(a) *
                             static_cast<std::uint64_t>(b));
}

/** out[l] = @p op (a[l], b[l], c[l]) for l in [lo, hi), for the plain
 *  ALU-class opcodes (Mov..Shr). */
void aluRow(Opcode op, const Word *a, const Word *b, const Word *c,
            unsigned lo, unsigned hi, Word *out);

/** Lanes l in [lo, hi) where a[l] @p op b[l] holds. */
LaneMask compareRow(CmpOp op, const Word *a, const Word *b, unsigned lo,
                    unsigned hi);

/** Per-thread identity a special-register read depends on. */
struct ThreadCtx {
    unsigned warpInCta = 0;
    unsigned ctaId = 0;
    unsigned blockThreads = 0;
    unsigned gridCtas = 0;
    unsigned smId = 0;
};

/** out[l] = special register @p sr of lane l, for l in [lo, hi). */
void specialRow(SpecialReg sr, const ThreadCtx &ctx, unsigned lo,
                unsigned hi, Word *out);

}  // namespace bowsim::exec

#endif  // BOWSIM_ISA_EXEC_HPP
