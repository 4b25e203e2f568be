#include "src/isa/verifier.hpp"

#include <algorithm>
#include <sstream>

#include "src/common/log.hpp"

namespace bowsim {

namespace {

/**
 * Flags a register or predicate operand outside the declared file, or
 * past the scoreboard's 64-bit masks when the declaration is larger.
 */
void
checkOperandBounds(const Program &prog, Pc pc, const Operand &op,
                   const char *role, std::vector<VerifyIssue> &issues)
{
    const bool reg = op.kind == Operand::Kind::Reg;
    if (!reg && op.kind != Operand::Kind::Pred)
        return;
    const unsigned size = reg ? std::min(prog.numRegs, kMaxRegs)
                              : std::min(prog.numPreds, kMaxPreds);
    if (op.index < 0 || static_cast<unsigned>(op.index) >= size) {
        issues.push_back({pc, std::string(role) +
                                  (reg ? ": register %r" : ": predicate %p") +
                                  std::to_string(op.index) +
                                  " out of bounds"});
    }
}

}  // namespace

std::vector<VerifyIssue>
verify(const Program &prog)
{
    std::vector<VerifyIssue> issues;
    const unsigned n = prog.length();
    if (n == 0) {
        issues.push_back({0, "program has no instructions"});
        return issues;
    }

    if (prog.numRegs > kMaxRegs) {
        issues.push_back({0, ".reg " + std::to_string(prog.numRegs) +
                                 " is over the limit of " +
                                 std::to_string(kMaxRegs) + " registers"});
    }
    if (prog.numPreds > kMaxPreds) {
        issues.push_back({0, ".pred " + std::to_string(prog.numPreds) +
                                 " is over the limit of " +
                                 std::to_string(kMaxPreds) + " predicates"});
    }

    const Instruction &last = prog.code.back();
    bool terminated = (last.op == Opcode::Exit && last.guard < 0) ||
                      (last.op == Opcode::Bra && last.guard < 0);
    if (!terminated)
        issues.push_back({n - 1, "control can fall off the end"});

    for (Pc pc = 0; pc < n; ++pc) {
        const Instruction &inst = prog.at(pc);
        const OperandShape shape = shapeOf(inst);

        if (inst.dst.kind != shape.dst)
            issues.push_back({pc, "wrong destination operand"});
        // The sources fill src[0], src[1], ... in order, as the engines,
        // the assembler and the printer read them.
        for (unsigned i = 0; i < 3; ++i) {
            if (inst.src[i].valid() != (i < shape.srcs)) {
                issues.push_back({pc, "wrong source operands"});
                break;
            }
        }

        checkOperandBounds(prog, pc, inst.dst, "dst", issues);
        for (const Operand &s : inst.src)
            checkOperandBounds(prog, pc, s, "src", issues);
        if (inst.guard >= 0 &&
            static_cast<unsigned>(inst.guard) >=
                std::min(prog.numPreds, kMaxPreds)) {
            issues.push_back({pc, "guard predicate out of bounds"});
        }

        if (inst.op == Opcode::Bra && inst.target >= n)
            issues.push_back({pc, "branch target out of range"});
        // kInvalidPc reconverges at exit; any other value is a PC.
        if (inst.op == Opcode::Bra && inst.reconvergence != kInvalidPc &&
            inst.reconvergence >= n)
            issues.push_back({pc, "reconvergence PC out of range"});
        if (inst.isMemory() && inst.size != 2 && inst.size != 4 &&
            inst.size != 8) {
            issues.push_back({pc, "bad memory access size"});
        }
        if (inst.scope != MemScope::Device && inst.op != Opcode::Atom &&
            inst.op != Opcode::Membar) {
            issues.push_back(
                {pc, "memory scope on a non-atomic, non-fence opcode"});
        }
    }

    // Annotation consistency.
    for (const PcAnnotation &a : kPcAnnotations) {
        for (Pc pc : prog.sync.*a.pcs) {
            if (pc >= n || prog.at(pc).op != a.tags) {
                issues.push_back({pc, std::string(a.name) +
                                          " annotation on a non-" +
                                          toString(a.tags)});
            } else if (a.pcs == &SyncAnnotations::spinBranches &&
                       prog.at(pc).target > pc) {
                issues.push_back({pc, "spin branch is not backward"});
            }
        }
    }
    for (Pc pc : prog.sync.syncRegion) {
        if (pc >= n)
            issues.push_back({pc, "sync-region annotation past the end"});
    }
    return issues;
}

void
verifyOrDie(const Program &prog)
{
    auto issues = verify(prog);
    if (issues.empty())
        return;
    std::ostringstream os;
    os << "program '" << prog.name << "' failed verification:";
    for (const VerifyIssue &i : issues)
        os << "\n  pc " << i.pc << ": " << i.message;
    fatal(os.str());
}

}  // namespace bowsim
