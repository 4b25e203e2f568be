#include "src/isa/instruction.hpp"

#include <span>
#include <sstream>

namespace bowsim {

namespace {

// One name per enumerator, in declaration order.
constexpr const char *kOpcodeNames[] = {
    "nop", "mov", "add", "sub", "mul", "mad", "div", "rem", "min", "max",
    "and", "or", "xor", "not", "shl", "shr", "setp", "selp", "bra", "exit",
    "bar", "membar", "ld", "st", "atom", "clock"};
constexpr const char *kCmpNames[] = {"eq", "ne", "lt", "le", "gt", "ge"};
constexpr const char *kSpaceNames[] = {"global", "shared", "param"};
constexpr const char *kScopeNames[] = {"gpu", "sys"};
constexpr const char *kAtomNames[] = {"cas", "exch", "add", "min", "max"};
constexpr const char *kSpecialNames[] = {
    "%tid", "%ctaid", "%ntid", "%nctaid", "%laneid", "%warpid", "%smid"};

static_assert(std::size(kOpcodeNames) == unsigned(Opcode::Clock) + 1);
static_assert(std::size(kCmpNames) == unsigned(CmpOp::Ge) + 1);
static_assert(std::size(kSpaceNames) == unsigned(MemSpace::Param) + 1);
static_assert(std::size(kScopeNames) == unsigned(MemScope::System) + 1);
static_assert(std::size(kAtomNames) == unsigned(AtomOp::Max) + 1);
static_assert(std::size(kSpecialNames) == unsigned(SpecialReg::SmId) + 1);

std::span<const char *const> names(Opcode) { return kOpcodeNames; }
std::span<const char *const> names(CmpOp) { return kCmpNames; }
std::span<const char *const> names(MemSpace) { return kSpaceNames; }
std::span<const char *const> names(MemScope) { return kScopeNames; }
std::span<const char *const> names(AtomOp) { return kAtomNames; }
std::span<const char *const> names(SpecialReg) { return kSpecialNames; }

template <typename E>
const char *
spell(E e)
{
    return names(e)[static_cast<std::size_t>(e)];
}

}  // namespace

const char *toString(Opcode op) { return spell(op); }
const char *toString(CmpOp op) { return spell(op); }
const char *toString(MemSpace space) { return spell(space); }
const char *toString(MemScope scope) { return spell(scope); }
const char *toString(AtomOp op) { return spell(op); }
const char *toString(SpecialReg reg) { return spell(reg); }

template <typename E>
std::optional<E>
fromString(const std::string &name)
{
    const std::span<const char *const> table = names(E{});
    for (std::size_t i = 0; i < table.size(); ++i) {
        if (name == table[i])
            return static_cast<E>(i);
    }
    return std::nullopt;
}

template std::optional<Opcode> fromString(const std::string &);
template std::optional<CmpOp> fromString(const std::string &);
template std::optional<MemSpace> fromString(const std::string &);
template std::optional<MemScope> fromString(const std::string &);
template std::optional<AtomOp> fromString(const std::string &);
template std::optional<SpecialReg> fromString(const std::string &);

OperandShape
shapeOf(const Instruction &inst)
{
    using K = Operand::Kind;
    switch (inst.op) {
      case Opcode::Nop:
      case Opcode::Exit:
      case Opcode::Bar:
      case Opcode::Membar:
      case Opcode::Bra:
        return {K::None, 0};
      case Opcode::Clock:
        return {K::Reg, 0};
      case Opcode::Mov:
      case Opcode::Not:
      case Opcode::Ld:
        return {K::Reg, 1};
      case Opcode::Setp:
        return {K::Pred, 2};
      case Opcode::St:
        return {K::None, 2};
      case Opcode::Selp:
      case Opcode::Mad:
        return {K::Reg, 3};
      case Opcode::Atom:
        return {K::Reg, inst.atom == AtomOp::Cas ? 3u : 2u};
      default:
        return {K::Reg, 2};  // binary ALU
    }
}

std::string
toString(const Instruction &inst)
{
    std::ostringstream os;
    if (inst.guard >= 0)
        os << (inst.guardNegate ? "@!%p" : "@%p") << inst.guard << " ";
    os << toString(inst.op);
    // Device scope is the default and goes unwritten.
    const std::string scope = inst.scope == MemScope::System
                                  ? std::string(".") + toString(inst.scope)
                                  : "";
    switch (inst.op) {
      case Opcode::Bra:
        os << (inst.uniform ? ".uni L" : " L") << inst.target;
        return os.str();
      case Opcode::Setp:
        os << "." << toString(inst.cmp) << ".s64";
        break;
      case Opcode::Membar:
        os << scope;
        break;
      case Opcode::Ld:
      case Opcode::St:
        os << (inst.isVolatile ? ".volatile." : ".") << toString(inst.space)
           << ".u" << inst.size * 8;
        break;
      case Opcode::Atom:
        os << "." << toString(inst.space) << scope << "."
           << toString(inst.atom) << ".b" << inst.size * 8;
        break;
      default:
        break;
    }

    auto put = [&os](const Operand &op) {
        switch (op.kind) {
          case Operand::Kind::None: os << "_"; break;
          case Operand::Kind::Reg: os << "%r" << op.index; break;
          case Operand::Kind::Pred: os << "%p" << op.index; break;
          case Operand::Kind::Imm: os << op.imm; break;
          case Operand::Kind::Special:
            os << toString(static_cast<SpecialReg>(op.index));
            break;
        }
    };
    const OperandShape shape = shapeOf(inst);
    const char *sep = " ";
    if (shape.dst != Operand::Kind::None) {
        os << sep;
        put(inst.dst);
        sep = ", ";
    }
    for (unsigned i = 0; i < shape.srcs; ++i) {
        os << sep;
        sep = ", ";
        if (i > 0 || !inst.isMemory()) {
            put(inst.src[i]);
            continue;
        }
        os << "[";
        put(inst.src[0]);
        if (inst.memOffset != 0)
            os << (inst.memOffset > 0 ? "+" : "") << inst.memOffset;
        os << "]";
    }
    return os.str();
}

}  // namespace bowsim
