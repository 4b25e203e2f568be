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
        tokens_ = tokenize(line);
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
    tokenize(const std::string &line)
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
            auto annot = std::find_if(
                std::begin(kPcAnnotations), std::end(kPcAnnotations),
                [&](const PcAnnotation &a) { return kind == a.name; });
            if (annot != std::end(kPcAnnotations)) {
                pending_ = annot;
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
        // neg d, a  ==  sub d, 0, a
        const bool neg = base == "neg";
        if (auto op = neg ? Opcode::Sub : fromString<Opcode>(base))
            inst.op = *op;
        else
            fatal("line ", line_, ": unknown opcode '", base, "'");

        switch (inst.op) {
          case Opcode::Bra:
            inst.uniform = parts.size() > 1 && parts[1] == "uni";
            pendingBranches_.push_back(
                {static_cast<Pc>(prog_.code.size()), take(), line_});
            break;
          case Opcode::Bar:
            // Optional barrier id operand; only barrier 0 is modeled.
            if (pos_ < tokens_.size())
                (void)parseOperand();
            break;
          case Opcode::Membar:
            if (parts.size() > 1)
                inst.scope = parseName<MemScope>(parts[1], "memory scope");
            break;
          case Opcode::Setp:
            if (parts.size() < 2)
                fatal("line ", line_, ": setp needs a comparison suffix");
            inst.cmp = parseName<CmpOp>(parts[1], "comparison");
            break;
          case Opcode::Ld:
          case Opcode::St: {
            inst.isVolatile = parts.size() > 1 && parts[1] == "volatile";
            const unsigned space_idx = inst.isVolatile ? 2 : 1;
            if (parts.size() <= space_idx)
                fatal("line ", line_, ": ", base, " needs a space suffix");
            inst.space = parseName<MemSpace>(parts[space_idx], "memory space");
            if (inst.space == MemSpace::Param && inst.op == Opcode::St)
                fatal("line ", line_, ": cannot store to param space");
            inst.size = parseWidth(parts);
            break;
          }
          case Opcode::Atom: {
            if (parts.size() < 3)
                fatal("line ", line_, ": atom needs space and op suffixes");
            inst.space = parseName<MemSpace>(parts[1], "memory space");
            if (inst.space != MemSpace::Global)
                fatal("line ", line_, ": only global atomics are supported");
            // Optional scope between the space and the op
            // (atom.global.sys.cas.b64); device scope is the default.
            unsigned op_idx = 2;
            if (auto scope = fromString<MemScope>(parts[2])) {
                inst.scope = *scope;
                if (parts.size() < 4)
                    fatal("line ", line_, ": atom needs an op suffix");
                op_idx = 3;
            }
            inst.atom = parseName<AtomOp>(parts[op_idx], "atomic op");
            inst.size = parseWidth(parts);
            break;
          }
          default:
            break;
        }

        if (neg) {
            inst.dst = parseOperand();
            inst.src[0] = Operand::immediate(0);
            inst.src[1] = parseOperand();
        } else {
            parseOperands(inst);
        }
        if (inst.op == Opcode::Setp && inst.dst.kind != Operand::Kind::Pred)
            fatal("line ", line_, ": setp destination must be %p");
        if (inst.op == Opcode::Selp && inst.src[2].kind != Operand::Kind::Pred)
            fatal("line ", line_, ": selp selector must be %p");

        applyPendingAnnotation(inst);
        trackRegisterUse(inst);
        prog_.code.push_back(inst);
    }

    void
    applyPendingAnnotation(const Instruction &inst)
    {
        if (pending_ == nullptr)
            return;
        if (inst.op != pending_->tags)
            fatal("line ", line_, ": .annot ", pending_->name,
                  " must tag a ", toString(pending_->tags));
        (prog_.sync.*pending_->pcs).insert(static_cast<Pc>(prog_.code.size()));
        pending_ = nullptr;
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

    /** The enumerator named @p s; fatal, naming @p what, on no match. */
    template <typename E>
    E
    parseName(const std::string &s, const char *what)
    {
        if (auto e = fromString<E>(s))
            return *e;
        fatal("line ", line_, ": unknown ", what, " '", s, "'");
    }

    /**
     * Reads @p inst's operands in shapeOf order: the destination, then
     * the sources, a memory op's address base as `[base+offset]`.
     */
    void
    parseOperands(Instruction &inst)
    {
        const OperandShape shape = shapeOf(inst);
        if (shape.dst != Operand::Kind::None)
            inst.dst = parseOperand();
        for (unsigned i = 0; i < shape.srcs; ++i) {
            if (i == 0 && inst.isMemory())
                parseMemRef(inst);
            else
                inst.src[i] = parseOperand();
        }
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
        inst.src[0] = parseOperandToken(tok.substr(0, plus));
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
            if (auto sr = fromString<SpecialReg>("%" + body))
                return Operand::special(*sr);
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
    /** The annotation `.annot` set for the next instruction, if any. */
    const PcAnnotation *pending_ = nullptr;
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
