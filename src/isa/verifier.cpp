#include "src/isa/verifier.hpp"

#include <algorithm>
#include <map>
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

/** Expected operand shape per opcode: {dst kind, #sources}. */
struct Shape {
    Operand::Kind dst;
    unsigned minSrcs;
    unsigned maxSrcs;
};

Shape
shapeOf(const Instruction &inst)
{
    using K = Operand::Kind;
    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Exit:
      case Opcode::Bar:
      case Opcode::Membar:
        return {K::None, 0, 0};
      case Opcode::Bra:
        return {K::None, 0, 0};
      case Opcode::Mov:
      case Opcode::Not:
        return {K::Reg, 1, 1};
      case Opcode::Clock:
        return {K::Reg, 0, 0};
      case Opcode::Setp:
        return {K::Pred, 2, 2};
      case Opcode::Selp:
      case Opcode::Mad:
        return {K::Reg, 3, 3};
      case Opcode::Ld:
        return {K::Reg, 1, 1};
      case Opcode::St:
        return {K::None, 2, 2};
      case Opcode::Atom:
        return {K::Reg, inst.atom == AtomOp::Cas ? 3u : 2u,
                inst.atom == AtomOp::Cas ? 3u : 2u};
      default:
        return {K::Reg, 2, 2};  // binary ALU
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
        Shape shape = shapeOf(inst);

        if (shape.dst == Operand::Kind::None && inst.dst.valid()) {
            issues.push_back({pc, "unexpected destination operand"});
        } else if (shape.dst != Operand::Kind::None &&
                   inst.dst.kind != shape.dst) {
            issues.push_back({pc, "wrong destination operand kind"});
        }
        unsigned srcs = 0;
        for (const Operand &s : inst.src)
            srcs += s.valid() ? 1 : 0;
        if (srcs < shape.minSrcs || srcs > shape.maxSrcs)
            issues.push_back({pc, "wrong source operand count"});

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
    for (Pc pc : prog.sync.spinBranches) {
        if (pc >= n || prog.at(pc).op != Opcode::Bra)
            issues.push_back({pc, "spin annotation on a non-branch"});
        else if (prog.at(pc).target > pc)
            issues.push_back({pc, "spin branch is not backward"});
    }
    for (Pc pc : prog.sync.lockAcquires) {
        if (pc >= n || prog.at(pc).op != Opcode::Atom)
            issues.push_back({pc, "acquire annotation on a non-atomic"});
    }
    for (Pc pc : prog.sync.waitChecks) {
        if (pc >= n || prog.at(pc).op != Opcode::Setp)
            issues.push_back({pc, "wait annotation on a non-setp"});
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

std::string
disassemble(const Program &prog)
{
    // Collect branch targets so we can emit labels.
    std::map<Pc, std::string> labels;
    for (const Instruction &inst : prog.code) {
        if (inst.op == Opcode::Bra && !labels.count(inst.target))
            labels[inst.target] =
                "L" + std::to_string(labels.size());
    }

    std::ostringstream os;
    os << ".kernel " << (prog.name.empty() ? "kernel" : prog.name)
       << "\n";
    os << ".reg " << prog.numRegs << "\n";
    os << ".pred " << std::max(prog.numPreds, 1u) << "\n";
    if (prog.sharedBytes)
        os << ".shared " << prog.sharedBytes << "\n";
    if (prog.numParams)
        os << ".param " << prog.numParams << "\n";

    auto operand = [](const Operand &op) -> std::string {
        switch (op.kind) {
          case Operand::Kind::Reg:
            return "%r" + std::to_string(op.index);
          case Operand::Kind::Pred:
            return "%p" + std::to_string(op.index);
          case Operand::Kind::Imm:
            return std::to_string(op.imm);
          case Operand::Kind::Special:
            switch (static_cast<SpecialReg>(op.index)) {
              case SpecialReg::TidX: return "%tid";
              case SpecialReg::CtaIdX: return "%ctaid";
              case SpecialReg::NTidX: return "%ntid";
              case SpecialReg::NCtaIdX: return "%nctaid";
              case SpecialReg::LaneId: return "%laneid";
              case SpecialReg::WarpId: return "%warpid";
              case SpecialReg::SmId: return "%smid";
            }
            return "?";
          case Operand::Kind::None:
            return "?";
        }
        return "?";
    };
    auto memref = [&](const Instruction &inst) {
        std::string s = "[" + operand(inst.src[0]);
        if (inst.memOffset > 0)
            s += "+" + std::to_string(inst.memOffset);
        else if (inst.memOffset < 0)
            s += std::to_string(inst.memOffset);
        return s + "]";
    };
    auto width = [](unsigned size) {
        return size == 8 ? ".u64" : size == 4 ? ".u32" : ".u16";
    };
    auto space = [](MemSpace sp) {
        switch (sp) {
          case MemSpace::Global: return ".global";
          case MemSpace::Shared: return ".shared";
          case MemSpace::Param: return ".param";
        }
        return "";
    };

    for (Pc pc = 0; pc < prog.length(); ++pc) {
        const Instruction &inst = prog.at(pc);
        if (labels.count(pc))
            os << labels[pc] << ":\n";
        if (prog.sync.spinBranches.count(pc))
            os << "  .annot spin\n";
        if (prog.sync.lockAcquires.count(pc))
            os << "  .annot acquire\n";
        if (prog.sync.waitChecks.count(pc))
            os << "  .annot wait\n";
        os << "  ";
        if (inst.guard >= 0)
            os << "@" << (inst.guardNegate ? "!" : "") << "%p"
               << inst.guard << " ";
        switch (inst.op) {
          case Opcode::Bra:
            os << "bra" << (inst.uniform ? ".uni " : " ")
               << labels[inst.target];
            break;
          case Opcode::Ld:
            os << "ld" << (inst.isVolatile ? ".volatile" : "")
               << space(inst.space) << width(inst.size) << " "
               << operand(inst.dst) << ", " << memref(inst);
            break;
          case Opcode::St:
            os << "st" << space(inst.space) << width(inst.size) << " "
               << memref(inst) << ", " << operand(inst.src[1]);
            break;
          case Opcode::Atom: {
            const char *aop = inst.atom == AtomOp::Cas    ? "cas"
                              : inst.atom == AtomOp::Exch ? "exch"
                              : inst.atom == AtomOp::Add  ? "add"
                              : inst.atom == AtomOp::Min  ? "min"
                                                          : "max";
            os << "atom.global."
               << (inst.scope == MemScope::System ? "sys." : "") << aop
               << (inst.size == 8 ? ".b64" : ".b32") << " "
               << operand(inst.dst) << ", " << memref(inst) << ", "
               << operand(inst.src[1]);
            if (inst.atom == AtomOp::Cas)
                os << ", " << operand(inst.src[2]);
            break;
          }
          case Opcode::Membar:
            os << "membar"
               << (inst.scope == MemScope::System ? ".sys" : "");
            break;
          case Opcode::Setp:
            os << "setp." << toString(inst.cmp) << ".s64 "
               << operand(inst.dst) << ", " << operand(inst.src[0])
               << ", " << operand(inst.src[1]);
            break;
          default: {
            os << toString(inst.op);
            bool first = true;
            auto emit = [&](const Operand &op) {
                if (!op.valid())
                    return;
                os << (first ? " " : ", ") << operand(op);
                first = false;
            };
            emit(inst.dst);
            for (const Operand &s : inst.src)
                emit(s);
            break;
          }
        }
        os << ";\n";
    }
    return os.str();
}

}  // namespace bowsim
