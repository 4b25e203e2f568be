#ifndef BOWSIM_ISA_EXEC_HPP
#define BOWSIM_ISA_EXEC_HPP

#include "src/common/types.hpp"
#include "src/isa/instruction.hpp"

/**
 * @file
 * Pure ISA value helpers: wrapping arithmetic, the ALU opcodes, setp
 * comparisons and special registers. They touch no register file,
 * memory, lock tracker or statistics; the per-lane interpreter both
 * execution modes share (src/sim/interpreter.hpp) builds on them.
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

/** Result of a plain ALU-class opcode (Mov..Shr). */
Word aluCompute(const Instruction &inst, Word a, Word b, Word c);

/** Setp comparison semantics. */
bool compare(CmpOp op, Word a, Word b);

/** Per-thread identity a special-register read depends on. */
struct ThreadCtx {
    unsigned warpInCta = 0;
    unsigned ctaId = 0;
    unsigned blockThreads = 0;
    unsigned gridCtas = 0;
    unsigned smId = 0;
};

/** Special (read-only) register semantics shared by both executors. */
Word readSpecial(SpecialReg sr, const ThreadCtx &ctx, unsigned lane);

}  // namespace bowsim::exec

#endif  // BOWSIM_ISA_EXEC_HPP
