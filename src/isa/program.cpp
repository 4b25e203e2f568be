#include "src/isa/program.hpp"

#include <sstream>

namespace bowsim {

std::string
disassemble(const Program &prog)
{
    std::set<Pc> targets;
    for (const Instruction &inst : prog.code) {
        if (inst.isBranch())
            targets.insert(inst.target);
    }

    std::ostringstream os;
    if (!prog.name.empty())
        os << ".kernel " << prog.name << "\n";
    os << ".reg " << prog.numRegs << "\n.pred " << prog.numPreds << "\n";
    if (prog.sharedBytes)
        os << ".shared " << prog.sharedBytes << "\n";
    if (prog.numParams)
        os << ".param " << prog.numParams << "\n";

    const SyncAnnotations &sync = prog.sync;
    for (Pc pc = 0; pc < prog.length(); ++pc) {
        // Each maximal run of sync-region PCs is one sync_begin/sync_end
        // bracket, closed after its last instruction.
        const bool after_region = pc > 0 && sync.isSyncPc(pc - 1);
        if (after_region && !sync.isSyncPc(pc))
            os << ".annot sync_end\n";
        if (targets.count(pc))
            os << "L" << pc << ":\n";
        if (!after_region && sync.isSyncPc(pc))
            os << ".annot sync_begin\n";
        for (const PcAnnotation &a : kPcAnnotations) {
            if ((sync.*a.pcs).count(pc))
                os << "  .annot " << a.name << "\n";
        }
        os << "  " << toString(prog.code[pc]) << ";\n";
    }
    if (prog.length() > 0 && sync.isSyncPc(prog.length() - 1))
        os << ".annot sync_end\n";
    return os.str();
}

}  // namespace bowsim
