#ifndef BOWSIM_TESTS_PROGRAM_FIELDS_HPP
#define BOWSIM_TESTS_PROGRAM_FIELDS_HPP

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/isa/program.hpp"

/**
 * @file
 * Every field of a Program as "name=value" lines in a fixed order. The
 * round-trip tests compare two programs through it, and
 * Assembler.ProgramsPinned hashes it.
 */

namespace bowsim::test {

/**
 * Lists every field of @p p: the directives, every Instruction field
 * of every PC and the four annotation sets. @p with_lines adds each
 * instruction's source line, which a disassembly renumbers.
 */
inline std::vector<std::string>
programFields(const Program &p, bool with_lines)
{
    std::vector<std::string> out;
    auto put = [&out](const std::string &name, long long value) {
        out.push_back(name + "=" + std::to_string(value));
    };
    out.push_back("name=" + p.name);
    put("numRegs", p.numRegs);
    put("numPreds", p.numPreds);
    put("sharedBytes", p.sharedBytes);
    put("numParams", p.numParams);
    put("length", p.length());
    for (Pc pc = 0; pc < p.length(); ++pc) {
        const Instruction &i = p.code[pc];
        const std::string at = "pc" + std::to_string(pc) + ".";
        put(at + "op", static_cast<int>(i.op));
        put(at + "cmp", static_cast<int>(i.cmp));
        put(at + "space", static_cast<int>(i.space));
        put(at + "atom", static_cast<int>(i.atom));
        put(at + "scope", static_cast<int>(i.scope));
        put(at + "size", i.size);
        put(at + "guard", i.guard);
        put(at + "guardNegate", i.guardNegate);
        put(at + "uniform", i.uniform);
        put(at + "isVolatile", i.isVolatile);
        const Operand *ops[] = {&i.dst, &i.src[0], &i.src[1], &i.src[2]};
        for (int k = 0; k < 4; ++k) {
            const std::string o = at + "operand" + std::to_string(k) + ".";
            put(o + "kind", static_cast<int>(ops[k]->kind));
            put(o + "index", ops[k]->index);
            put(o + "imm", ops[k]->imm);
        }
        put(at + "memOffset", i.memOffset);
        put(at + "target", i.target);
        put(at + "reconvergence", i.reconvergence);
        if (with_lines)
            put(at + "line", i.line);
    }
    auto pcs = [&](const std::string &name, const std::set<Pc> &set) {
        put(name + ".size", static_cast<long long>(set.size()));
        for (Pc pc : set)
            put(name, pc);
    };
    pcs("spinBranches", p.sync.spinBranches);
    pcs("lockAcquires", p.sync.lockAcquires);
    pcs("waitChecks", p.sync.waitChecks);
    pcs("syncRegion", p.sync.syncRegion);
    return out;
}

/**
 * The first field, source lines aside, in which @p a and @p b differ,
 * as "a's line | b's line"; empty when the programs are equal.
 */
inline std::string
firstDifference(const Program &a, const Program &b)
{
    const std::vector<std::string> fa = programFields(a, false);
    const std::vector<std::string> fb = programFields(b, false);
    auto [ia, ib] = std::mismatch(fa.begin(), fa.end(), fb.begin(), fb.end());
    if (ia == fa.end() && ib == fb.end())
        return "";
    return (ia == fa.end() ? "<end>" : *ia) + " | " +
           (ib == fb.end() ? "<end>" : *ib);
}

}  // namespace bowsim::test

#endif  // BOWSIM_TESTS_PROGRAM_FIELDS_HPP
