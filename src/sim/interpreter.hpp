#ifndef BOWSIM_SIM_INTERPRETER_HPP
#define BOWSIM_SIM_INTERPRETER_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/types.hpp"
#include "src/isa/instruction.hpp"

/**
 * @file
 * The instruction interpreter both execution modes share. SmCore
 * (cycle mode) and FunctionalExecutor (functional mode) dispatch control
 * flow themselves — Bra, Exit, Bar, Nop, Membar — and hand every other
 * instruction to executeLanes(), the one definition of its value
 * semantics: operand reads, register and predicate writes, param,
 * shared and global loads and stores, and atomics.
 *
 * It works row-wise: each source is resolved once into a lane row, the
 * opcode or comparison is switched on once per instruction, and the
 * value ops loop over the exec mask's lane span, writing back only exec
 * lanes. Memory accesses and atomics go one exec lane at a time in lane
 * order. Each global store and atomic asks the lock tracker for its
 * transition once and hands that one value to the Fig. 2 outcome
 * counters and the syncprof hooks. Timing (scoreboard, writeback, LD/ST
 * unit, DDOS) stays with the caller.
 */

namespace bowsim {

struct LaunchState;
class Warp;

/** Effective address of each lane of a memory instruction. */
using LaneAddrs = std::array<Addr, kWarpSize>;

/** Value of operand @p op in lane @p lane of @p w on SM @p sm_id; a
 *  missing operand reads 0. */
Word readOperand(const LaunchState &launch, unsigned sm_id, const Warp &w,
                 const Operand &op, unsigned lane);

/**
 * Applies @p inst's value semantics to the lanes of @p w in @p exec.
 *
 * @param sm_id  the SM the warp runs on (%smid)
 * @param shared the shared memory of the warp's CTA
 * @param clock  what `clock` reads and when the syncprof hooks fire:
 *               the SM cycle in cycle mode, the executed-instruction
 *               pseudo-clock in functional mode
 * @param addrs  receives each @p exec lane's effective address for
 *               shared and global ld/st/atom; other entries untouched
 */
void executeLanes(LaunchState &launch, unsigned sm_id,
                  std::vector<std::uint8_t> &shared, Warp &w,
                  const Instruction &inst, LaneMask exec, Cycle clock,
                  LaneAddrs &addrs);

}  // namespace bowsim

#endif  // BOWSIM_SIM_INTERPRETER_HPP
