#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "src/mem/l2_bank.hpp"
#include "src/sim/ldst_unit.hpp"

/**
 * @file
 * Direct tests of LdstUnit's completion events (docs/PERF.md, "One
 * completion event per instruction"): a warp memory instruction
 * completes once, at its latest reply; completions in one cycle follow
 * the replies' sequence numbers; and an instruction never completes
 * before all of its transactions have passed the L1 port. Expected
 * cycles come from a twin MemorySystem fed the same request sequence.
 */

namespace bowsim {
namespace {

struct Done {
    Cycle at;
    const Instruction *inst;
};

/** One LD/ST unit on its own memory system, stepped cycle by cycle. */
struct Rig {
    explicit Rig(const GpuConfig &c)
        : cfg(c), memsys(cfg), unit(cfg, 0, memsys, stats)
    {
    }

    /** Runs cycles [first, last], recording every completion. */
    void
    run(Cycle first, Cycle last)
    {
        for (Cycle now = first; now <= last; ++now) {
            completed.clear();
            unit.cycle(now, completed);
            for (const MemCompletion &c : completed)
                done.push_back(Done{now, c.inst});
        }
    }

    void
    submit(const Instruction &inst, const std::array<Addr, kWarpSize> &a,
           LaneMask mask, Cycle now)
    {
        unit.submit(&warp, inst, a, mask, false, now);
    }

    GpuConfig cfg;
    MemorySystem memsys;
    KernelStats stats;
    LdstUnit unit;
    Warp warp{0, 0, 0, 0, 8, 2, kFullMask};
    std::vector<MemCompletion> completed;
    std::vector<Done> done;
};

GpuConfig
oneCore()
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 1;
    return cfg;
}

Instruction
memInst(Opcode op, MemSpace space = MemSpace::Global)
{
    Instruction inst;
    inst.op = op;
    inst.space = space;
    return inst;
}

TEST(LdstUnit, AtomicCompletesOnceAtItsLatestReply)
{
    // 32 distinct addresses: 32 transactions, one per cycle through the
    // port from cycle 1, each with its own L2 reply.
    Rig rig(oneCore());
    const Instruction atom = memInst(Opcode::Atom);
    std::array<Addr, kWarpSize> addrs{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        addrs[lane] = 0x10000 + 8 * Addr{lane};
    rig.submit(atom, addrs, kFullMask, 0);

    MemorySystem twin(rig.cfg);
    Cycle first = kNeverCycle;
    Cycle latest = 0;
    for (unsigned lane = 0; lane < kWarpSize; ++lane) {
        const Cycle at = twin.request(
            MemPacket{addrs[lane], MemPacket::Type::Atomic, 0}, 1 + lane);
        first = std::min(first, at);
        latest = std::max(latest, at);
    }
    ASSERT_LT(first, latest);

    rig.run(1, latest + 100);
    ASSERT_EQ(rig.done.size(), 1u);
    EXPECT_EQ(rig.done[0].at, latest);
    EXPECT_EQ(rig.done[0].inst, &atom);
    EXPECT_EQ(rig.warp.ldstOutstanding(), 0u);
    EXPECT_EQ(rig.unit.nextEventCycle(latest + 100), kNeverCycle);
}

TEST(LdstUnit, SameCycleCompletionsFollowTheReplySequence)
{
    // A 32-line store keeps the port busy for cycles 1-32, so store A,
    // submitted right after it, passes at 33 and lands at 34. Shared
    // access B is submitted later (a higher op id) but takes its
    // sequence number at submit, before A passes the port, and lands at
    // 34 too: B completes first.
    Rig rig(oneCore());
    const Instruction wide = memInst(Opcode::St);
    const Instruction a = memInst(Opcode::St);
    const Instruction b = memInst(Opcode::Ld, MemSpace::Shared);
    std::array<Addr, kWarpSize> lines{};
    for (unsigned lane = 0; lane < kWarpSize; ++lane)
        lines[lane] = 0x40000 + kLineBytes * Addr{lane};
    std::array<Addr, kWarpSize> one{};
    one[0] = 0x80000;
    rig.submit(wide, lines, kFullMask, 0);
    rig.submit(a, one, 1, 0);

    constexpr Cycle kLand = 34;
    static_assert(kSharedMemLatency < kLand - 1,
                  "B must be submitted before A passes the port");
    rig.run(1, kLand - kSharedMemLatency);
    rig.submit(b, one, 1, kLand - kSharedMemLatency);
    rig.run(kLand - kSharedMemLatency + 1, kLand + 10);

    ASSERT_EQ(rig.done.size(), 3u);
    EXPECT_EQ(rig.done[0].inst, &wide);
    EXPECT_EQ(rig.done[0].at, kLand - 1);
    EXPECT_EQ(rig.done[1].inst, &b);
    EXPECT_EQ(rig.done[1].at, kLand);
    EXPECT_EQ(rig.done[2].inst, &a);
    EXPECT_EQ(rig.done[2].at, kLand);
}

TEST(LdstUnit, FillWithATransactionStillQueuedDoesNotCompleteTheLoad)
{
    // One MSHR: line X misses at cycle 1 and takes it; line Y misses
    // and retries until X's fill frees it at cycle F. That fill lands
    // while Y is still queued, so the load completes only at Y's fill.
    GpuConfig cfg = oneCore();
    cfg.l1Mshrs = 1;
    Rig rig(cfg);
    const Instruction load = memInst(Opcode::Ld);
    std::array<Addr, kWarpSize> addrs{};
    addrs[0] = 0x20000;
    addrs[1] = 0x20000 + kLineBytes;
    rig.submit(load, addrs, 0x3, 0);

    MemorySystem twin(cfg);
    const Cycle fill_x =
        twin.request(MemPacket{addrs[0], MemPacket::Type::Read, 0}, 1);
    const Cycle fill_y =
        twin.request(MemPacket{addrs[1], MemPacket::Type::Read, 0}, fill_x);
    ASSERT_GT(fill_x, 2u);

    rig.run(1, fill_x);
    EXPECT_TRUE(rig.done.empty()) << "completed at X's fill, cycle "
                                  << rig.done[0].at;
    rig.run(fill_x + 1, fill_y + 100);
    ASSERT_EQ(rig.done.size(), 1u);
    EXPECT_EQ(rig.done[0].at, fill_y);
    EXPECT_EQ(rig.warp.ldstOutstanding(), 0u);
    EXPECT_TRUE(rig.unit.canAccept());
}

}  // namespace
}  // namespace bowsim
