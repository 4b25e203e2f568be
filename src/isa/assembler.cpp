#include "src/isa/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "src/common/log.hpp"
#include "src/isa/cfg.hpp"

namespace bowsim {

namespace {

/** Pending annotation to apply to the next emitted instruction. */
enum class PendingAnnot { None, Spin, Acquire, Wait };

struct PendingBranch {
    Pc pc;
    std::string label;
    int line;
};

/** Splits a mnemonic like "atom.global.cas.b64" into dotted parts. */
std::vector<std::string>
splitDots(const std::string &token)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : token) {
        if (c == '.') {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    parts.push_back(cur);
    return parts;
}

class Parser {
  public:
    explicit Parser(const std::string &source) : source_(source) {}

    Program
    run()
    {
        std::istringstream in(source_);
        std::string line;
        int line_no = 0;
        while (std::getline(in, line)) {
            ++line_no;
            parseLine(line, line_no);
        }
        finish();
        return std::move(prog_);
    }

  private:
    void
    parseLine(std::string line, int line_no)
    {
        // Strip comments and trailing semicolons/whitespace.
        auto comment = line.find("//");
        if (comment != std::string::npos)
            line.erase(comment);
        tokens_ = tokenize(line, line_no);
        pos_ = 0;
        line_ = line_no;
        if (tokens_.empty())
            return;

        // Labels: IDENT ':' prefixes (may stack on one line).
        while (pos_ + 1 < tokens_.size() && tokens_[pos_ + 1] == ":") {
            defineLabel(tokens_[pos_]);
            pos_ += 2;
        }
        if (pos_ >= tokens_.size())
            return;

        const std::string &head = tokens_[pos_];
        if (head[0] == '.') {
            parseDirective();
        } else {
            parseInstruction();
        }
        if (pos_ < tokens_.size())
            fatal("line ", line_, ": trailing tokens after statement");
    }

    static std::vector<std::string>
    tokenize(const std::string &line, int line_no)
    {
        std::vector<std::string> out;
        size_t i = 0;
        while (i < line.size()) {
            char c = line[i];
            if (std::isspace(static_cast<unsigned char>(c)) || c == ',' ||
                c == ';') {
                ++i;
                continue;
            }
            if (c == '[' || c == ']' || c == ':') {
                out.emplace_back(1, c);
                ++i;
                continue;
            }
            size_t j = i;
            while (j < line.size() && !std::isspace(
                       static_cast<unsigned char>(line[j])) &&
                   line[j] != ',' && line[j] != ';' && line[j] != '[' &&
                   line[j] != ']' && line[j] != ':') {
                ++j;
            }
            out.push_back(line.substr(i, j - i));
            i = j;
        }
        (void)line_no;
        return out;
    }

    void
    defineLabel(const std::string &name)
    {
        if (labels_.count(name))
            fatal("line ", line_, ": duplicate label '", name, "'");
        labels_[name] = static_cast<Pc>(prog_.code.size());
    }

    void
    parseDirective()
    {
        std::string dir = take();
        if (dir == ".kernel") {
            prog_.name = take();
        } else if (dir == ".reg") {
            prog_.numRegs = takeUnsigned();
            explicitRegs_ = true;
        } else if (dir == ".pred") {
            prog_.numPreds = takeUnsigned();
            explicitPreds_ = true;
        } else if (dir == ".shared") {
            prog_.sharedBytes = takeUnsigned();
        } else if (dir == ".param") {
            prog_.numParams = takeUnsigned();
        } else if (dir == ".annot") {
            std::string kind = take();
            if (kind == "spin") {
                pending_ = PendingAnnot::Spin;
            } else if (kind == "acquire") {
                pending_ = PendingAnnot::Acquire;
            } else if (kind == "wait") {
                pending_ = PendingAnnot::Wait;
            } else if (kind == "sync_begin") {
                syncBegin_ = static_cast<Pc>(prog_.code.size());
            } else if (kind == "sync_end") {
                if (!syncBegin_)
                    fatal("line ", line_, ": sync_end without sync_begin");
                Pc last = static_cast<Pc>(prog_.code.size());
                if (last == *syncBegin_)
                    fatal("line ", line_, ": empty sync region");
                prog_.annotateSyncRange(*syncBegin_, last - 1);
                syncBegin_.reset();
            } else {
                fatal("line ", line_, ": unknown annotation '", kind, "'");
            }
        } else {
            fatal("line ", line_, ": unknown directive '", dir, "'");
        }
    }

    void
    parseInstruction()
    {
        Instruction inst;
        inst.line = line_;

        // Optional guard @%p / @!%p.
        if (tokens_[pos_][0] == '@') {
            std::string g = take().substr(1);
            if (!g.empty() && g[0] == '!') {
                inst.guardNegate = true;
                g = g.substr(1);
            }
            Operand p = parseOperandToken(g);
            if (p.kind != Operand::Kind::Pred)
                fatal("line ", line_, ": guard must be a predicate");
            inst.guard = p.index;
        }

        auto parts = splitDots(take());
        const std::string &base = parts[0];

        if (base == "mov" || base == "not" || base == "neg" ||
            base == "clock") {
            inst.op = base == "clock" ? Opcode::Clock
                    : base == "not"   ? Opcode::Not
                                      : Opcode::Mov;
            inst.dst = parseOperand();
            if (inst.op != Opcode::Clock)
                inst.src[0] = parseOperand();
            if (base == "neg") {
                // neg d, a  ==  sub d, 0, a
                inst.op = Opcode::Sub;
                inst.src[1] = inst.src[0];
                inst.src[0] = Operand::immediate(0);
            }
        } else if (base == "add" || base == "sub" || base == "mul" ||
                   base == "div" || base == "rem" || base == "min" ||
                   base == "max" || base == "and" || base == "or" ||
                   base == "xor" || base == "shl" || base == "shr") {
            static const std::map<std::string, Opcode> kBinOps = {
                {"add", Opcode::Add}, {"sub", Opcode::Sub},
                {"mul", Opcode::Mul}, {"div", Opcode::Div},
                {"rem", Opcode::Rem}, {"min", Opcode::Min},
                {"max", Opcode::Max}, {"and", Opcode::And},
                {"or", Opcode::Or},   {"xor", Opcode::Xor},
                {"shl", Opcode::Shl}, {"shr", Opcode::Shr},
            };
            inst.op = kBinOps.at(base);
            inst.dst = parseOperand();
            inst.src[0] = parseOperand();
            inst.src[1] = parseOperand();
        } else if (base == "mad") {
            inst.op = Opcode::Mad;
            inst.dst = parseOperand();
            inst.src[0] = parseOperand();
            inst.src[1] = parseOperand();
            inst.src[2] = parseOperand();
        } else if (base == "setp") {
            inst.op = Opcode::Setp;
            if (parts.size() < 2)
                fatal("line ", line_, ": setp needs a comparison suffix");
            inst.cmp = parseCmp(parts[1]);
            inst.dst = parseOperand();
            inst.src[0] = parseOperand();
            inst.src[1] = parseOperand();
            if (inst.dst.kind != Operand::Kind::Pred)
                fatal("line ", line_, ": setp destination must be %p");
        } else if (base == "selp") {
            inst.op = Opcode::Selp;
            inst.dst = parseOperand();
            inst.src[0] = parseOperand();
            inst.src[1] = parseOperand();
            inst.src[2] = parseOperand();
            if (inst.src[2].kind != Operand::Kind::Pred)
                fatal("line ", line_, ": selp selector must be %p");
        } else if (base == "bra") {
            inst.op = Opcode::Bra;
            inst.uniform =
                parts.size() > 1 && parts[1] == "uni";
            std::string label = take();
            pendingBranches_.push_back(
                {static_cast<Pc>(prog_.code.size()), label, line_});
        } else if (base == "exit") {
            inst.op = Opcode::Exit;
        } else if (base == "bar") {
            inst.op = Opcode::Bar;
            // Optional barrier id operand; only barrier 0 is modeled.
            if (pos_ < tokens_.size())
                (void)parseOperand();
        } else if (base == "membar") {
            inst.op = Opcode::Membar;
            if (parts.size() > 1)
                inst.scope = parseScope(parts[1]);
        } else if (base == "nop") {
            inst.op = Opcode::Nop;
        } else if (base == "ld" || base == "st") {
            inst.op = base == "ld" ? Opcode::Ld : Opcode::St;
            if (parts.size() < 2)
                fatal("line ", line_, ": ", base, " needs a space suffix");
            unsigned space_idx = 1;
            if (parts[1] == "volatile") {
                inst.isVolatile = true;
                if (parts.size() < 3)
                    fatal("line ", line_, ": ld.volatile needs a space");
                space_idx = 2;
            }
            inst.space = parseSpace(parts[space_idx]);
            inst.size = parseWidth(parts);
            if (inst.op == Opcode::Ld) {
                inst.dst = parseOperand();
                parseMemRef(inst);
            } else {
                parseMemRef(inst);
                inst.src[1] = parseOperand();
            }
            if (inst.space == MemSpace::Param && inst.op == Opcode::St)
                fatal("line ", line_, ": cannot store to param space");
        } else if (base == "atom") {
            inst.op = Opcode::Atom;
            if (parts.size() < 3)
                fatal("line ", line_, ": atom needs space and op suffixes");
            inst.space = parseSpace(parts[1]);
            if (inst.space != MemSpace::Global)
                fatal("line ", line_, ": only global atomics are supported");
            // Optional scope between the space and the op
            // (atom.global.sys.cas.b64); device scope is the default.
            unsigned op_idx = 2;
            if (parts[2] == "sys" || parts[2] == "gpu") {
                inst.scope = parseScope(parts[2]);
                if (parts.size() < 4)
                    fatal("line ", line_, ": atom needs an op suffix");
                op_idx = 3;
            }
            inst.atom = parseAtomOp(parts[op_idx]);
            inst.size = parseWidth(parts);
            inst.dst = parseOperand();
            parseMemRef(inst);
            inst.src[1] = parseOperand();
            if (inst.atom == AtomOp::Cas)
                inst.src[2] = parseOperand();
        } else {
            fatal("line ", line_, ": unknown opcode '", base, "'");
        }

        applyPendingAnnotation(inst);
        trackRegisterUse(inst);
        prog_.code.push_back(inst);
    }

    void
    applyPendingAnnotation(const Instruction &inst)
    {
        Pc pc = static_cast<Pc>(prog_.code.size());
        switch (pending_) {
          case PendingAnnot::None:
            break;
          case PendingAnnot::Spin:
            if (inst.op != Opcode::Bra)
                fatal("line ", line_, ": .annot spin must tag a branch");
            prog_.sync.spinBranches.insert(pc);
            break;
          case PendingAnnot::Acquire:
            if (inst.op != Opcode::Atom)
                fatal("line ", line_, ": .annot acquire must tag an atomic");
            prog_.sync.lockAcquires.insert(pc);
            break;
          case PendingAnnot::Wait:
            if (inst.op != Opcode::Setp)
                fatal("line ", line_, ": .annot wait must tag a setp");
            prog_.sync.waitChecks.insert(pc);
            break;
        }
        pending_ = PendingAnnot::None;
    }

    void
    trackRegisterUse(const Instruction &inst)
    {
        auto see = [&](const Operand &op) {
            if (op.kind == Operand::Kind::Reg) {
                maxReg_ = std::max(maxReg_, op.index);
            } else if (op.kind == Operand::Kind::Pred) {
                maxPred_ = std::max(maxPred_, op.index);
            }
        };
        see(inst.dst);
        for (const auto &s : inst.src)
            see(s);
        if (inst.guard >= 0)
            maxPred_ = std::max(maxPred_, inst.guard);
    }

    CmpOp
    parseCmp(const std::string &s)
    {
        if (s == "eq") return CmpOp::Eq;
        if (s == "ne") return CmpOp::Ne;
        if (s == "lt") return CmpOp::Lt;
        if (s == "le") return CmpOp::Le;
        if (s == "gt") return CmpOp::Gt;
        if (s == "ge") return CmpOp::Ge;
        fatal("line ", line_, ": unknown comparison '", s, "'");
    }

    MemSpace
    parseSpace(const std::string &s)
    {
        if (s == "global") return MemSpace::Global;
        if (s == "shared") return MemSpace::Shared;
        if (s == "param") return MemSpace::Param;
        fatal("line ", line_, ": unknown memory space '", s, "'");
    }

    MemScope
    parseScope(const std::string &s)
    {
        if (s == "sys") return MemScope::System;
        if (s == "gpu") return MemScope::Device;
        fatal("line ", line_, ": unknown memory scope '", s, "'");
    }

    AtomOp
    parseAtomOp(const std::string &s)
    {
        if (s == "cas") return AtomOp::Cas;
        if (s == "exch") return AtomOp::Exch;
        if (s == "add") return AtomOp::Add;
        if (s == "min") return AtomOp::Min;
        if (s == "max") return AtomOp::Max;
        fatal("line ", line_, ": unknown atomic op '", s, "'");
    }

    /** Width from a type suffix such as u32/s64/b32/f32; defaults to 8. */
    unsigned
    parseWidth(const std::vector<std::string> &parts)
    {
        for (size_t i = 1; i < parts.size(); ++i) {
            const std::string &p = parts[i];
            if (p.size() == 3 &&
                (p[0] == 'u' || p[0] == 's' || p[0] == 'b' || p[0] == 'f')) {
                if (p.substr(1) == "32")
                    return 4;
                if (p.substr(1) == "64")
                    return 8;
                if (p.substr(1) == "16")
                    return 2;
            }
        }
        return 8;
    }

    void
    parseMemRef(Instruction &inst)
    {
        expect("[");
        std::string tok = take();
        // Forms: %rN | %rN+imm | %rN-imm | imm
        auto plus = tok.find_first_of("+-", 1);
        std::string base_tok = tok.substr(0, plus);
        Operand base = parseOperandToken(base_tok);
        inst.src[0] = base;
        if (plus != std::string::npos) {
            Word off = parseImm(tok.substr(plus + 1));
            if (tok[plus] == '-')
                off = -off;
            inst.memOffset = off;
        }
        expect("]");
    }

    Operand
    parseOperand()
    {
        if (pos_ >= tokens_.size())
            fatal("line ", line_, ": missing operand");
        return parseOperandToken(take());
    }

    Operand
    parseOperandToken(const std::string &tok)
    {
        if (tok.empty())
            fatal("line ", line_, ": empty operand");
        if (tok[0] == '%') {
            std::string body = tok.substr(1);
            // Drop a trailing ".x" dimension suffix on specials.
            auto dot = body.find('.');
            std::string dim;
            if (dot != std::string::npos) {
                dim = body.substr(dot + 1);
                body = body.substr(0, dot);
                if (dim != "x")
                    fatal("line ", line_, ": only .x dimensions supported");
            }
            if (body.size() > 1 && (body[0] == 'r' || body[0] == 'p') &&
                std::isdigit(static_cast<unsigned char>(body[1]))) {
                int idx = std::stoi(body.substr(1));
                return body[0] == 'r' ? Operand::reg(idx)
                                      : Operand::pred(idx);
            }
            if (body == "tid") return Operand::special(SpecialReg::TidX);
            if (body == "ctaid")
                return Operand::special(SpecialReg::CtaIdX);
            if (body == "ntid") return Operand::special(SpecialReg::NTidX);
            if (body == "nctaid")
                return Operand::special(SpecialReg::NCtaIdX);
            if (body == "laneid")
                return Operand::special(SpecialReg::LaneId);
            if (body == "warpid")
                return Operand::special(SpecialReg::WarpId);
            if (body == "smid") return Operand::special(SpecialReg::SmId);
            fatal("line ", line_, ": unknown register '", tok, "'");
        }
        return Operand::immediate(parseImm(tok));
    }

    Word
    parseImm(const std::string &tok)
    {
        try {
            size_t used = 0;
            Word v = std::stoll(tok, &used, 0);
            if (used != tok.size())
                fatal("line ", line_, ": bad immediate '", tok, "'");
            return v;
        } catch (const std::invalid_argument &) {
            fatal("line ", line_, ": bad immediate '", tok, "'");
        } catch (const std::out_of_range &) {
            fatal("line ", line_, ": immediate out of range '", tok, "'");
        }
    }

    void
    expect(const std::string &tok)
    {
        if (pos_ >= tokens_.size() || tokens_[pos_] != tok)
            fatal("line ", line_, ": expected '", tok, "'");
        ++pos_;
    }

    std::string
    take()
    {
        if (pos_ >= tokens_.size())
            fatal("line ", line_, ": unexpected end of statement");
        return tokens_[pos_++];
    }

    unsigned
    takeUnsigned()
    {
        Word v = parseImm(take());
        if (v < 0)
            fatal("line ", line_, ": expected a non-negative count");
        return static_cast<unsigned>(v);
    }

    void
    finish()
    {
        if (syncBegin_)
            fatal("unterminated .annot sync_begin");
        if (prog_.code.empty())
            fatal("kernel '", prog_.name, "' has no instructions");

        // Resolve branch targets.
        for (const auto &pb : pendingBranches_) {
            auto it = labels_.find(pb.label);
            if (it == labels_.end())
                fatal("line ", pb.line, ": undefined label '", pb.label,
                      "'");
            prog_.code[pb.pc].target = it->second;
        }

        // Kernels may not fall off the end of the instruction stream.
        const Instruction &last = prog_.code.back();
        bool terminated = (last.op == Opcode::Exit && last.guard < 0) ||
                          (last.op == Opcode::Bra && last.guard < 0);
        if (!terminated) {
            Instruction exit_inst;
            exit_inst.op = Opcode::Exit;
            prog_.code.push_back(exit_inst);
        }

        if (!explicitRegs_)
            prog_.numRegs = static_cast<unsigned>(maxReg_ + 1);
        else if (maxReg_ >= static_cast<int>(prog_.numRegs))
            fatal("register %r", maxReg_, " exceeds .reg ", prog_.numRegs);
        if (!explicitPreds_)
            prog_.numPreds = static_cast<unsigned>(maxPred_ + 1);
        else if (maxPred_ >= static_cast<int>(prog_.numPreds))
            fatal("predicate %p", maxPred_, " exceeds .pred ",
                  prog_.numPreds);

        assignReconvergencePcs(prog_);
    }

    const std::string &source_;
    Program prog_;
    std::map<std::string, Pc> labels_;
    std::vector<PendingBranch> pendingBranches_;
    std::vector<std::string> tokens_;
    size_t pos_ = 0;
    int line_ = 0;
    PendingAnnot pending_ = PendingAnnot::None;
    std::optional<Pc> syncBegin_;
    bool explicitRegs_ = false;
    bool explicitPreds_ = false;
    int maxReg_ = 0;
    int maxPred_ = 0;
};

}  // namespace

Program
assemble(const std::string &source)
{
    return Parser(source).run();
}

}  // namespace bowsim
