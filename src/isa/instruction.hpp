#ifndef BOWSIM_ISA_INSTRUCTION_HPP
#define BOWSIM_ISA_INSTRUCTION_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/types.hpp"

/**
 * @file
 * A PTX-like mini-ISA. Values are 64-bit words; memory operations carry an
 * access size (4 or 8 bytes). The subset covers everything the paper's
 * benchmark kernels need: ALU ops, set-predicate, predicated branches,
 * global/shared/param memory, atomics, barriers, fences and clock reads.
 */

namespace bowsim {

/** Program counters index instructions; one instruction occupies 8 bytes
 *  of (virtual) instruction memory, as assumed by DDOS's PC hashing. */
using Pc = std::uint32_t;

constexpr unsigned kInstrBytes = 8;
constexpr Pc kInvalidPc = 0xffffffffu;

enum class Opcode : std::uint8_t {
    Nop,
    Mov,
    Add,
    Sub,
    Mul,
    Mad,   ///< d = a * b + c
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Xor,
    Not,
    Shl,
    Shr,
    Setp,  ///< set predicate from comparison
    Selp,  ///< d = p ? a : b
    Bra,   ///< (possibly predicated) branch
    Exit,  ///< thread exit
    Bar,   ///< CTA-wide barrier (bar.sync)
    Membar,///< memory fence (threadfence)
    Ld,
    St,
    Atom,  ///< atomic read-modify-write on global memory
    Clock, ///< read the SM cycle counter
};

enum class CmpOp : std::uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

enum class MemSpace : std::uint8_t { Global, Shared, Param };

enum class AtomOp : std::uint8_t { Cas, Exch, Add, Min, Max };

/**
 * Memory scope of an atomic or fence (`atom.global.sys.*` /
 * `membar.sys`). Device (the default, and the only behavior before the
 * device/system split) resolves at the issuing device's L2; System
 * routes to the address's home device over the inter-device link, so
 * the operation is ordered against every device's accesses.
 */
enum class MemScope : std::uint8_t { Device, System };

/** Special (read-only, per-thread) registers. */
enum class SpecialReg : std::uint8_t {
    TidX,     ///< thread index within CTA
    CtaIdX,   ///< CTA index within grid
    NTidX,    ///< CTA size
    NCtaIdX,  ///< grid size
    LaneId,   ///< lane within warp
    WarpId,   ///< warp within CTA
    SmId,     ///< core the CTA runs on
};

/** One instruction operand. */
struct Operand {
    enum class Kind : std::uint8_t { None, Reg, Pred, Imm, Special };

    Kind kind = Kind::None;
    /** Register/predicate index, or SpecialReg cast to int. */
    int index = 0;
    /** Immediate value when kind == Imm. */
    Word imm = 0;

    static Operand none() { return {}; }
    static Operand reg(int r) { return {Kind::Reg, r, 0}; }
    static Operand pred(int p) { return {Kind::Pred, p, 0}; }
    static Operand immediate(Word v) { return {Kind::Imm, 0, v}; }
    static Operand special(SpecialReg s)
    {
        return {Kind::Special, static_cast<int>(s), 0};
    }

    bool isReg() const { return kind == Kind::Reg; }
    bool valid() const { return kind != Kind::None; }
};

/** Decoded instruction. */
struct Instruction {
    Opcode op = Opcode::Nop;
    CmpOp cmp = CmpOp::Eq;
    MemSpace space = MemSpace::Global;
    AtomOp atom = AtomOp::Cas;
    /** Scope of an Atom/Membar (ignored by every other opcode). */
    MemScope scope = MemScope::Device;
    /** Memory access size in bytes (4 or 8). */
    unsigned size = 8;

    /** Guard predicate register; -1 = unguarded. */
    int guard = -1;
    /** Execute when the guard is false instead of true (`@!%p`). */
    bool guardNegate = false;
    /** bra.uni: branch asserted to be warp-uniform. */
    bool uniform = false;
    /**
     * ld.volatile: bypass the (incoherent) L1 and read through to the L2,
     * as GPU spin-wait polling loads must.
     */
    bool isVolatile = false;

    /** Destination register (Reg for ALU/ld/atom, Pred for setp). */
    Operand dst;
    /** Source operands; memory address base goes in src[0]. */
    Operand src[3];
    /** Constant byte offset for memory operands (`[%r1+8]`). */
    Word memOffset = 0;

    /** Branch target (filled by the assembler from the label). */
    Pc target = kInvalidPc;
    /** Reconvergence PC (immediate post-dominator; filled by CFG pass). */
    Pc reconvergence = kInvalidPc;

    /** Source line in the assembly text, for diagnostics. */
    int line = 0;

    bool isBranch() const { return op == Opcode::Bra; }
    bool
    isMemory() const
    {
        return op == Opcode::Ld || op == Opcode::St || op == Opcode::Atom;
    }
    bool isAtomic() const { return op == Opcode::Atom; }

    /** True for mul/div-class ops that use the long-latency pipe. */
    bool
    longLatency() const
    {
        return op == Opcode::Mul || op == Opcode::Mad ||
               op == Opcode::Div || op == Opcode::Rem;
    }
};

/**
 * What an instruction's operands are: the kind of its destination
 * (None when it writes none) and how many sources it reads, src[0]
 * first. A memory op's src[0] is its address base, written with
 * memOffset as `[base+offset]`. The assembler reads operands by it,
 * toString() prints them by it and verify() checks them against it.
 */
struct OperandShape {
    Operand::Kind dst;
    unsigned srcs;
};

OperandShape shapeOf(const Instruction &inst);

/**
 * The ISA's spelling, one name per enumerator: the assembler reads
 * every name through fromString() and toString() prints it, so the two
 * cannot drift. Bar is spelled `bar` (the assembler takes `bar.sync`
 * too), and a special register keeps its `%`, as in `%tid`.
 */
const char *toString(Opcode op);
const char *toString(CmpOp op);
const char *toString(MemSpace space);
const char *toString(MemScope scope);
const char *toString(AtomOp op);
const char *toString(SpecialReg reg);

/** The enumerator toString() spells @p name, if any (the six enums). */
template <typename E>
std::optional<E> fromString(const std::string &name);

/**
 * @p inst in assembler syntax, without the closing ';'. A branch names
 * its target as the label `L<target pc>`, which disassemble() defines.
 */
std::string toString(const Instruction &inst);

}  // namespace bowsim

#endif  // BOWSIM_ISA_INSTRUCTION_HPP
