#ifndef BOWSIM_ISA_PROGRAM_HPP
#define BOWSIM_ISA_PROGRAM_HPP

#include <set>
#include <string>
#include <vector>

#include "src/isa/instruction.hpp"

/**
 * @file
 * A Program is one assembled kernel: the instruction stream plus the
 * resource declarations and the synchronization annotations used by the
 * oracle spin detector and the statistics classifier.
 */

namespace bowsim {

/**
 * Synchronization annotations for one kernel.
 *
 * These are *measurement* aids, not functional state: ground-truth
 * spin-inducing branches feed the DDOS accuracy metrics (Table I) and the
 * oracle SpinDetect mode; the acquire/wait PCs feed the lock-outcome
 * classifier behind Figures 2 and 12; the sync region feeds the
 * useful-vs-overhead instruction split behind Figures 1c and 13a.
 */
struct SyncAnnotations {
    /** PCs of ground-truth spin-inducing (backward) branches. */
    std::set<Pc> spinBranches;
    /** PCs of atomic lock-acquire attempts (atomicCAS of a mutex). */
    std::set<Pc> lockAcquires;
    /**
     * PCs of wait-condition checks (the setp of a wait-and-signal loop).
     * A lane that exits the loop after this check scored a Wait Exit
     * Success; a lane that iterates again scored a Wait Exit Fail.
     */
    std::set<Pc> waitChecks;
    /** PCs whose dynamic instances count as synchronization overhead. */
    std::set<Pc> syncRegion;

    bool isSyncPc(Pc pc) const { return syncRegion.count(pc) != 0; }
};

/**
 * The per-instruction annotations, as `.annot` spells them: each tags
 * one opcode and records its PC in one SyncAnnotations set. The
 * assembler, disassemble() and verify() read this one table. (The
 * sync region is written as a `sync_begin`/`sync_end` bracket.)
 */
struct PcAnnotation {
    const char *name;
    Opcode tags;
    std::set<Pc> SyncAnnotations::*pcs;
};

inline constexpr PcAnnotation kPcAnnotations[] = {
    {"spin", Opcode::Bra, &SyncAnnotations::spinBranches},
    {"acquire", Opcode::Atom, &SyncAnnotations::lockAcquires},
    {"wait", Opcode::Setp, &SyncAnnotations::waitChecks},
};

/**
 * The largest register and predicate files a Program may declare: a
 * warp's scoreboard keeps one 64-bit mask of each. verify() enforces
 * both, so every index an instruction names fits a mask bit.
 */
constexpr unsigned kMaxRegs = 64;
constexpr unsigned kMaxPreds = 64;

/** One assembled kernel. */
struct Program {
    std::string name;
    std::vector<Instruction> code;
    /** General-purpose registers per thread (at most kMaxRegs). */
    unsigned numRegs = 16;
    /** Predicate registers per thread (at most kMaxPreds). */
    unsigned numPreds = 4;
    /** Static shared memory per CTA, bytes. */
    unsigned sharedBytes = 0;
    /** Number of 64-bit kernel parameters. */
    unsigned numParams = 0;

    SyncAnnotations sync;

    unsigned length() const { return code.size(); }

    const Instruction &
    at(Pc pc) const
    {
        return code.at(pc);
    }

    /** Marks all PCs in [first, last] as synchronization overhead. */
    void
    annotateSyncRange(Pc first, Pc last)
    {
        for (Pc pc = first; pc <= last; ++pc)
            sync.syncRegion.insert(pc);
    }
};

/**
 * Renders @p prog as assembler text: the directives, a label `L<pc>` on
 * every branch target, every annotation and toString() of each
 * instruction. assemble(disassemble(p)) reproduces every field of an
 * assembled program but the instructions' source lines, so a program
 * replays exactly from its text.
 */
std::string disassemble(const Program &prog);

}  // namespace bowsim

#endif  // BOWSIM_ISA_PROGRAM_HPP
