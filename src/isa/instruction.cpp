#include "src/isa/instruction.hpp"

#include <sstream>

namespace bowsim {

std::string
toString(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::Mov: return "mov";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Mad: return "mad";
      case Opcode::Div: return "div";
      case Opcode::Rem: return "rem";
      case Opcode::Min: return "min";
      case Opcode::Max: return "max";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Not: return "not";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::Setp: return "setp";
      case Opcode::Selp: return "selp";
      case Opcode::Bra: return "bra";
      case Opcode::Exit: return "exit";
      case Opcode::Bar: return "bar.sync";
      case Opcode::Membar: return "membar";
      case Opcode::Ld: return "ld";
      case Opcode::St: return "st";
      case Opcode::Atom: return "atom";
      case Opcode::Clock: return "clock";
    }
    return "?";
}

std::string
toString(CmpOp op)
{
    switch (op) {
      case CmpOp::Eq: return "eq";
      case CmpOp::Ne: return "ne";
      case CmpOp::Lt: return "lt";
      case CmpOp::Le: return "le";
      case CmpOp::Gt: return "gt";
      case CmpOp::Ge: return "ge";
    }
    return "?";
}

namespace {

void
renderOperand(std::ostream &os, const Operand &op)
{
    switch (op.kind) {
      case Operand::Kind::None:
        os << "_";
        break;
      case Operand::Kind::Reg:
        os << "%r" << op.index;
        break;
      case Operand::Kind::Pred:
        os << "%p" << op.index;
        break;
      case Operand::Kind::Imm:
        os << op.imm;
        break;
      case Operand::Kind::Special:
        switch (static_cast<SpecialReg>(op.index)) {
          case SpecialReg::TidX: os << "%tid"; break;
          case SpecialReg::CtaIdX: os << "%ctaid"; break;
          case SpecialReg::NTidX: os << "%ntid"; break;
          case SpecialReg::NCtaIdX: os << "%nctaid"; break;
          case SpecialReg::LaneId: os << "%laneid"; break;
          case SpecialReg::WarpId: os << "%warpid"; break;
          case SpecialReg::SmId: os << "%smid"; break;
        }
        break;
    }
}

}  // namespace

std::string
toString(const Instruction &inst)
{
    std::ostringstream os;
    if (inst.guard >= 0)
        os << "@" << (inst.guardNegate ? "!" : "") << "%p" << inst.guard
           << " ";
    os << toString(inst.op);
    if (inst.op == Opcode::Setp)
        os << "." << toString(inst.cmp);
    if (inst.op == Opcode::Atom) {
        switch (inst.atom) {
          case AtomOp::Cas: os << ".cas"; break;
          case AtomOp::Exch: os << ".exch"; break;
          case AtomOp::Add: os << ".add"; break;
          case AtomOp::Min: os << ".min"; break;
          case AtomOp::Max: os << ".max"; break;
        }
    }
    if (inst.isBranch()) {
        os << " -> " << inst.target;
        if (inst.reconvergence != kInvalidPc)
            os << " (rpc " << inst.reconvergence << ")";
        return os.str();
    }
    bool first = true;
    auto emit = [&](const Operand &op) {
        if (!op.valid())
            return;
        os << (first ? " " : ", ");
        first = false;
        renderOperand(os, op);
    };
    emit(inst.dst);
    emit(inst.src[0]);
    emit(inst.src[1]);
    emit(inst.src[2]);
    return os.str();
}

}  // namespace bowsim
