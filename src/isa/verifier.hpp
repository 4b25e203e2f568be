#ifndef BOWSIM_ISA_VERIFIER_HPP
#define BOWSIM_ISA_VERIFIER_HPP

#include <string>
#include <vector>

#include "src/isa/program.hpp"

/**
 * @file
 * Static program verification and disassembly. The verifier enforces the
 * invariants the simulator assumes: GpuSystem::launch runs verifyOrDie()
 * on every program, in both execution modes, so a broken hand-built
 * program fails with a FatalError before its first cycle, and the
 * engines index registers, predicates, PCs and annotations unchecked.
 * The disassembler renders a Program back to assembler-compatible text.
 */

namespace bowsim {

/** One verification finding. */
struct VerifyIssue {
    Pc pc;
    std::string message;
};

/**
 * Checks @p prog against the simulator's structural invariants: at
 * most kMaxRegs registers and kMaxPreds predicates, register/predicate
 * indices within bounds, branch targets and reconvergence PCs in range,
 * operand shapes per opcode, terminated fall-through, annotation
 * consistency (every annotated PC exists, spin branches are backward
 * branches, acquires are atomics, waits are setps).
 *
 * @return all violations found (empty = valid).
 */
std::vector<VerifyIssue> verify(const Program &prog);

/** Throws FatalError listing every issue when @p prog is invalid. */
void verifyOrDie(const Program &prog);

/**
 * Renders @p prog as assembler-accepted text (directives, labels for
 * every branch target, annotations). assemble(disassemble(p)) produces
 * an equivalent program.
 */
std::string disassemble(const Program &prog);

}  // namespace bowsim

#endif  // BOWSIM_ISA_VERIFIER_HPP
