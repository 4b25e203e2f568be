#ifndef BOWSIM_SIM_LDST_UNIT_HPP
#define BOWSIM_SIM_LDST_UNIT_HPP

#include <array>
#include <deque>
#include <queue>
#include <unordered_map>
#include <vector>

#include "src/arch/warp.hpp"
#include "src/common/config.hpp"
#include "src/mem/cache.hpp"
#include "src/mem/l2_bank.hpp"
#include "src/stats/stats.hpp"
#include "src/trace/trace.hpp"

/**
 * @file
 * Per-SM load/store unit. Warp memory instructions are coalesced into
 * per-line transactions (per-address for atomics, which serialize at the
 * L2 banks); one transaction per cycle flows through the L1 port. Loads
 * allocate MSHRs on miss; stores are write-through/no-allocate and
 * fire-and-forget; atomics bypass the L1 entirely. Functional values are
 * handled at issue by the core — this unit models timing and traffic.
 */

namespace bowsim {

/** A warp memory instruction whose timing completed this cycle. */
struct MemCompletion {
    Warp *warp;
    const Instruction *inst;
};

class LdstUnit {
  public:
    LdstUnit(const GpuConfig &cfg, unsigned sm_id, MemorySystem &memsys,
             KernelStats &stats);

    /** True when a new warp memory instruction can be accepted. */
    bool
    canAccept() const
    {
        return inflightOps_ < kMaxInflightOps;
    }

    /**
     * Accepts one warp memory instruction.
     *
     * @param addrs per-lane byte addresses (valid where mask is set)
     * @param mask  lanes participating
     * @param sync  instruction lies in an annotated sync region
     */
    void submit(Warp *warp, const Instruction &inst,
                const std::array<Addr, kWarpSize> &addrs, LaneMask mask,
                bool sync, Cycle now);

    /**
     * Advances one cycle: drains due events and pushes at most one
     * transaction through the L1 port. Finished warp instructions are
     * appended to @p completed.
     */
    void cycle(Cycle now, std::vector<MemCompletion> &completed);

    /**
     * Next-event horizon: the earliest cycle after @p now at which this
     * unit can make progress — kNeverCycle when nothing is pending.
     * A queued L1 transaction makes every next cycle busy (one txn per
     * cycle through the port); otherwise the earliest scheduled event
     * decides. Every in-flight op is backed by a queue entry or an
     * event, so inflightOps_ > 0 implies a finite horizon.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        if (!l1Queue_.empty())
            return now + 1;
        if (!events_.empty()) {
            const Cycle when = events_.top().when;
            return when > now ? when : now + 1;
        }
        return kNeverCycle;
    }

    /** Lines currently outstanding in the MSHR file (metrics gauge). */
    std::size_t mshrOccupancy() const { return mshr_.size(); }

    /** Attaches the launch's event sink (L1Miss/MshrMerge). */
    void setTrace(trace::Tracer t) { tracer_ = t; }

  private:
    static constexpr unsigned kMaxInflightOps = 64;

    struct Op {
        Warp *warp = nullptr;
        const Instruction *inst = nullptr;
        unsigned pending = 0;
        bool live = false;
    };

    struct Txn {
        Addr addr;  ///< line base (per-address for atomics)
        std::uint32_t op;
        MemPacket::Type type;
        /** Memory scope (atomics; Device for everything else). */
        MemScope scope;
        bool sync;
        /** Volatile load: bypass the L1 and read through to the L2. */
        bool vol;
    };

    struct Event {
        Cycle when;
        std::uint64_t seq;
        enum class Kind { OpPartDone, Fill } kind;
        std::uint32_t op;
        Addr line;

        bool
        operator>(const Event &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::uint32_t allocOp(Warp *warp, const Instruction &inst,
                          unsigned pending);
    void completePart(std::uint32_t op_id, Cycle now,
                      std::vector<MemCompletion> &completed);
    void pushEvent(Cycle when, Event::Kind kind, std::uint32_t op,
                   Addr line);

    const GpuConfig &cfg_;
    unsigned smId_;
    MemorySystem &memsys_;
    KernelStats &stats_;
    Cache l1_;
    trace::Tracer tracer_;

    std::vector<Op> ops_;
    std::vector<std::uint32_t> freeOps_;
    unsigned inflightOps_ = 0;

    std::deque<Txn> l1Queue_;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    std::uint64_t eventSeq_ = 0;
    /** line -> op ids waiting on an outstanding fill. */
    std::unordered_map<Addr, std::vector<std::uint32_t>> mshr_;
};

}  // namespace bowsim

#endif  // BOWSIM_SIM_LDST_UNIT_HPP
