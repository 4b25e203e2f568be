#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/sched/cawa.hpp"
#include "src/sched/gto.hpp"
#include "src/sched/lrr.hpp"
#include "src/sched/scheduler.hpp"
#include "src/sched/two_level.hpp"

#include "src/isa/assembler.hpp"
#include "src/sim/gpu.hpp"

namespace bowsim {
namespace {

std::vector<std::unique_ptr<Warp>>
makeWarps(unsigned n)
{
    std::vector<std::unique_ptr<Warp>> warps;
    for (unsigned i = 0; i < n; ++i) {
        warps.push_back(
            std::make_unique<Warp>(i, 0, i, i, 8, 2, kFullMask));
    }
    return warps;
}

std::vector<Warp *>
raw(const std::vector<std::unique_ptr<Warp>> &warps)
{
    std::vector<Warp *> out;
    for (const auto &w : warps)
        out.push_back(w.get());
    return out;
}

/**
 * One 64-slot unit holding @p warps, listed in launch-age order. The
 * unit is the only one of its SM, so warp id k sits in slot k.
 */
UnitWarps
unitOf(const std::vector<Warp *> &warps)
{
    UnitWarps unit;
    unit.bySlot.assign(64, nullptr);
    for (Warp *w : warps) {
        unit.bySlot[w->id()] = w;
        unit.byAge.push_back(static_cast<std::uint8_t>(w->id()));
        unit.resident |= std::uint64_t{1} << w->id();
    }
    return unit;
}

/** Records @p w's issue at @p now; a one-unit slot is the warp id. */
void
noteIssue(Scheduler &s, Warp *w, Cycle now)
{
    s.notifyIssued(w, w->id(), now);
}

/**
 * A policy's full priority order, recovered through pick() alone: each
 * returned warp's ready bit is cleared before the next call. @p warps are
 * a unit's residents in launch-age order; a warp parked at a barrier or
 * listed in @p ineligible starts with a clear ready bit, and the
 * backed-off mask follows the warps' back-off state.
 */
std::vector<unsigned>
priorityOrder(Scheduler &s, const std::vector<Warp *> &warps, Cycle now,
              bool deprioritize = false,
              const std::vector<Warp *> &ineligible = {})
{
    const UnitWarps unit = unitOf(warps);
    UnitMask mask;
    for (const Warp *w : warps) {
        const bool blocked =
            w->atBarrier() ||
            std::find(ineligible.begin(), ineligible.end(), w) !=
                ineligible.end();
        if (!blocked)
            mask.ready |= std::uint64_t{1} << w->id();
        if (w->bows().backedOff)
            mask.backedOff |= std::uint64_t{1} << w->id();
    }
    std::vector<unsigned> order;
    for (;;) {
        const unsigned k = s.pick(unit, mask, now, deprioritize);
        if (k == Scheduler::kNoSlot)
            break;
        order.push_back(unit.bySlot[k]->id());
        mask.ready &= ~(std::uint64_t{1} << k);
    }
    return order;
}

const SchedulerKind kPolicies[] = {SchedulerKind::LRR, SchedulerKind::GTO,
                                   SchedulerKind::CAWA,
                                   SchedulerKind::TwoLevel};

// ------------------------------------------------------------------ LRR

TEST(Lrr, InitialOrderIsById)
{
    auto owned = makeWarps(4);
    LrrScheduler lrr;
    EXPECT_EQ(priorityOrder(lrr, raw(owned), 0),
              (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(Lrr, RotatesPastLastIssued)
{
    auto owned = makeWarps(4);
    LrrScheduler lrr;
    noteIssue(lrr, owned[1].get(), 0);
    EXPECT_EQ(priorityOrder(lrr, raw(owned), 1),
              (std::vector<unsigned>{2, 3, 0, 1}));
    // A last-issued warp that exited leaves the resident vector but
    // stays lastIssued_ until its CTA retires: plain ascending ids then.
    std::vector<Warp *> list = {owned[0].get(), owned[2].get(),
                                owned[3].get()};
    EXPECT_EQ(priorityOrder(lrr, list, 1), (std::vector<unsigned>{0, 2, 3}));
}

TEST(Lrr, FullRotationIsFair)
{
    auto owned = makeWarps(3);
    LrrScheduler lrr;
    std::vector<unsigned> issued;
    for (int c = 0; c < 6; ++c) {
        issued.push_back(priorityOrder(lrr, raw(owned), c).front());
        noteIssue(lrr, owned[issued.back()].get(), c);
    }
    EXPECT_EQ(issued, (std::vector<unsigned>{0, 1, 2, 0, 1, 2}));
}

TEST(Lrr, FinishedWarpDropsFromRotation)
{
    auto owned = makeWarps(3);
    LrrScheduler lrr;
    noteIssue(lrr, owned[2].get(), 0);
    lrr.notifyFinished(owned[2].get());
    std::vector<Warp *> list = {owned[0].get(), owned[1].get()};
    EXPECT_EQ(priorityOrder(lrr, list, 1), (std::vector<unsigned>{0, 1}));
}

// ------------------------------------------------------------------ GTO

TEST(Gto, OldestFirstWithoutGreedy)
{
    auto owned = makeWarps(4);
    owned[0]->setAge(30);
    owned[1]->setAge(10);
    owned[2]->setAge(20);
    owned[3]->setAge(40);
    // The core keeps residents in launch-age order.
    std::vector<Warp *> list = {owned[1].get(), owned[2].get(),
                                owned[0].get(), owned[3].get()};
    GtoScheduler gto(0);
    EXPECT_EQ(priorityOrder(gto, list, 0),
              (std::vector<unsigned>{1, 2, 0, 3}));
}

TEST(Gto, GreedyKeepsLastIssuedOnTop)
{
    auto owned = makeWarps(4);
    GtoScheduler gto(0);
    noteIssue(gto, owned[3].get(), 0);
    // The rest stay oldest-first, and an ineligible greedy warp is
    // skipped.
    EXPECT_EQ(priorityOrder(gto, raw(owned), 1),
              (std::vector<unsigned>{3, 0, 1, 2}));
    EXPECT_EQ(priorityOrder(gto, raw(owned), 1, false, {owned[3].get()}),
              (std::vector<unsigned>{0, 1, 2}));
}

TEST(Gto, RotationShiftsAgePriorityOverTime)
{
    auto owned = makeWarps(4);
    GtoScheduler gto(1000);
    // rotation bucket 0
    EXPECT_EQ(priorityOrder(gto, raw(owned), 500).front(), 0u);
    // rotation bucket 1
    EXPECT_EQ(priorityOrder(gto, raw(owned), 1500).front(), 1u);
    EXPECT_EQ(priorityOrder(gto, raw(owned), 2500).front(), 2u);
}

TEST(Gto, FinishedGreedyWarpForgotten)
{
    auto owned = makeWarps(2);
    GtoScheduler gto(0);
    noteIssue(gto, owned[1].get(), 0);
    gto.notifyFinished(owned[1].get());
    std::vector<Warp *> list = {owned[0].get()};
    EXPECT_EQ(priorityOrder(gto, list, 1).front(), 0u);
}

// ----------------------------------------------------------------- CAWA

TEST(Cawa, PrioritizesHighestCriticality)
{
    auto owned = makeWarps(3);
    // Warp 2 looks critical: many estimated remaining instructions and
    // lots of accumulated stall (resident 5000 cycles without issuing,
    // the others 1000).
    owned[2]->cawa().estRemaining = 1000;
    owned[0]->cawa().estRemaining = 10;
    owned[1]->cawa().estRemaining = 10;
    owned[0]->cawa().dispatchCycle = 4000;
    owned[1]->cawa().dispatchCycle = 4000;
    CawaScheduler cawa;
    EXPECT_EQ(priorityOrder(cawa, raw(owned), 5000).front(), 2u);
}

TEST(Cawa, SpinningWarpGainsPriorityAsEstimateGrows)
{
    // The paper's pathology: taken backward branches inflate nInst, so a
    // spinning warp's criticality overtakes a steadily-working warp.
    auto owned = makeWarps(2);
    CawaState &spinner = owned[0]->cawa();
    CawaState &worker = owned[1]->cawa();
    spinner.estRemaining = 50;
    worker.estRemaining = 50;
    spinner.issued = worker.issued = 100;  // both resident since cycle 0

    CawaScheduler cawa;
    // Equal criticality: oldest (warp 0) leads; but now the spinner keeps
    // re-running its loop and its estimate balloons.
    EXPECT_EQ(priorityOrder(cawa, raw(owned), 1000).front(), 0u);
    for (int i = 0; i < 100; ++i)
        spinner.estRemaining += 5;  // backward-branch inflation
    EXPECT_EQ(priorityOrder(cawa, raw(owned), 1001).front(), 0u);
    EXPECT_GT(spinner.criticality(1001), worker.criticality(1001));
}

TEST(Cawa, CriticalityFormulaMatchesPaper)
{
    CawaState s;
    s.estRemaining = 100;
    s.issued = 50;
    s.dispatchCycle = 300;
    // At cycle 500: 200 active cycles, so CPIavg = 4, and 150 of them
    // issued nothing.
    EXPECT_DOUBLE_EQ(s.criticality(500), 100 * 4.0 + 150);
    // Before the first issue CPIavg counts as 1: nInst plus every
    // resident cycle.
    s.issued = 0;
    EXPECT_DOUBLE_EQ(s.criticality(310), 100 * 1.0 + 10);
}

TEST(Cawa, GreedyComponentKeepsLastIssued)
{
    auto owned = makeWarps(3);
    owned[0]->cawa().estRemaining = 100;
    CawaScheduler cawa;
    noteIssue(cawa, owned[2].get(), 0);
    EXPECT_EQ(priorityOrder(cawa, raw(owned), 1).front(), 2u);
    // An ineligible greedy warp is skipped: criticality, then age.
    EXPECT_EQ(priorityOrder(cawa, raw(owned), 1, false, {owned[2].get()}),
              (std::vector<unsigned>{0, 1}));
}

// ------------------------------------------------------------ TwoLevel

TEST(TwoLevel, ActiveGroupLeadsTheOrder)
{
    auto owned = makeWarps(32);
    TwoLevelScheduler tl;
    // Issue from warp 17: group 2 becomes active.
    noteIssue(tl, owned[17].get(), 0);
    const auto order = priorityOrder(tl, raw(owned), 1);
    // The first eight entries are all of group 2 (ids 16..23).
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(order[i] / 8, 2u) << "position " << i;
    }
    // Round-robin inside the group: warp after 17 leads.
    EXPECT_EQ(order[0], 18u);
}

TEST(TwoLevel, GroupsFollowInWrapOrder)
{
    auto owned = makeWarps(24);
    TwoLevelScheduler tl;
    noteIssue(tl, owned[16].get(), 0);  // active group = 2 (last)
    const auto order = priorityOrder(tl, raw(owned), 1);
    // Order of groups: 2, then 0, then 1.
    EXPECT_EQ(order[0] / 8, 2u);
    EXPECT_EQ(order[8] / 8, 0u);
    EXPECT_EQ(order[16] / 8, 1u);
}

TEST(TwoLevel, RunsAKernelCorrectly)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numCores = 2;
    cfg.scheduler = SchedulerKind::TwoLevel;
    Gpu gpu(cfg);
    Addr counter = gpu.malloc(8);
    Program prog = assemble(R"(
.kernel count
.param 1
  ld.param.u64 %r1, [0];
  atom.global.add.b64 %r2, [%r1], 1;
  exit;
)");
    gpu.launch(prog, Dim3{4, 1, 1}, Dim3{256, 1, 1},
               {static_cast<Word>(counter)});
    Word v = 0;
    gpu.memcpyFromDevice(&v, counter, 8);
    EXPECT_EQ(v, 4 * 256);
}

// ------------------------------------------------------------ residency
//
// A warp keeps its slot while resident, so an exit elsewhere in the unit
// moves no other warp's bit.

TEST(Residency, GreedyStaysOnLastIssuedAfterAnOlderWarpExits)
{
    auto owned = makeWarps(4);
    owned[0]->cawa().estRemaining = 1000;  // CAWA's most critical
    const std::vector<Warp *> after_exit = {owned[1].get(), owned[2].get(),
                                            owned[3].get()};
    GtoScheduler gto(0);
    CawaScheduler cawa;
    for (Scheduler *s : {static_cast<Scheduler *>(&gto),
                         static_cast<Scheduler *>(&cawa)}) {
        noteIssue(*s, owned[2].get(), 0);
        EXPECT_EQ(priorityOrder(*s, raw(owned), 1).front(), 2u) << s->name();
        // Warp 0, older than the greedy warp, exits.
        EXPECT_EQ(priorityOrder(*s, after_exit, 1).front(), 2u) << s->name();
    }
}

TEST(Residency, LrrKeepsItsPivotAfterAnOlderWarpExits)
{
    auto owned = makeWarps(4);
    LrrScheduler lrr;
    noteIssue(lrr, owned[2].get(), 0);
    const std::vector<Warp *> after_exit = {owned[1].get(), owned[2].get(),
                                            owned[3].get()};
    EXPECT_EQ(priorityOrder(lrr, after_exit, 1),
              (std::vector<unsigned>{3, 1, 2}));
}

TEST(Residency, TwoLevelGroupCountDropsWhenTheHighestWarpExits)
{
    // Groups 0 and 1 are full and warp 24 is alone in group 3; it issued
    // last, so group 3 is active.
    auto owned = makeWarps(25);
    std::vector<Warp *> list = raw(owned);
    list.erase(list.begin() + 16, list.begin() + 24);
    TwoLevelScheduler tl;
    noteIssue(tl, owned[24].get(), 0);
    const std::vector<unsigned> low = {1, 2, 3, 4, 5, 6, 7, 0};
    const std::vector<unsigned> high = {9, 10, 11, 12, 13, 14, 15, 8};
    // Four groups: group 3 leads, then the wrap to groups 0 and 1.
    std::vector<unsigned> expect = {24};
    expect.insert(expect.end(), low.begin(), low.end());
    expect.insert(expect.end(), high.begin(), high.end());
    EXPECT_EQ(priorityOrder(tl, list, 1), expect);
    // Warp 24 exits and stays the last-issued warp. Two groups remain,
    // so active group 3 wraps to group 1 ((g + 2 - 3) % 2 per group);
    // with four groups it would still lead with group 0.
    list.pop_back();
    expect = high;
    expect.insert(expect.end(), low.begin(), low.end());
    EXPECT_EQ(priorityOrder(tl, list, 1), expect);
}

// ---------------------------------------------------------- arbitration

TEST(Arbitration, BackedOffWarpsComeLastInFifoOrder)
{
    // Fig. 8: with deprioritization every policy's order over the
    // non-backed-off warps comes first, then the backed-off queue by
    // ticket; without it, backed-off warps are ordinary candidates.
    auto owned = makeWarps(6);
    for (auto [id, seq] : {std::pair{4, 1}, {2, 2}, {1, 3}}) {
        owned[id]->bows().backedOff = true;
        owned[id]->bows().backoffSeq = seq;
    }
    GpuConfig cfg;
    cfg.numSchedulersPerCore = 1;  // warp k in slot k, as unitOf() lays out
    for (SchedulerKind kind : kPolicies) {
        cfg.scheduler = kind;
        auto sched = makeScheduler(cfg);
        EXPECT_EQ(priorityOrder(*sched, raw(owned), 0, true),
                  (std::vector<unsigned>{0, 3, 5, 4, 2, 1}))
            << sched->name();
        EXPECT_EQ(priorityOrder(*sched, raw(owned), 0, false),
                  (std::vector<unsigned>{0, 1, 2, 3, 4, 5}))
            << sched->name();
    }
}

TEST(Arbitration, ClearedIssuableBitIsNeverPicked)
{
    // Barrier-parked warps have a clear ready bit, and the mask alone
    // keeps them out: warp 1 is the last-issued one GTO and CAWA favour,
    // warp 2 also sits in the backed-off queue.
    auto owned = makeWarps(4);
    owned[1]->setAtBarrier(true);
    owned[2]->setAtBarrier(true);
    owned[2]->bows().backedOff = true;
    GpuConfig cfg;
    cfg.numSchedulersPerCore = 1;  // warp k in slot k, as unitOf() lays out
    for (SchedulerKind kind : kPolicies) {
        cfg.scheduler = kind;
        auto sched = makeScheduler(cfg);
        noteIssue(*sched, owned[1].get(), 0);
        for (bool deprioritize : {false, true}) {
            auto order = priorityOrder(*sched, raw(owned), 1, deprioritize);
            std::sort(order.begin(), order.end());
            EXPECT_EQ(order, (std::vector<unsigned>{0, 3}))
                << sched->name() << " deprioritize=" << deprioritize;
        }
    }
}

// -------------------------------------------------------------- factory

TEST(SchedulerFactory, CreatesConfiguredKind)
{
    GpuConfig cfg;
    cfg.scheduler = SchedulerKind::LRR;
    EXPECT_STREQ(makeScheduler(cfg)->name(), "LRR");
    cfg.scheduler = SchedulerKind::GTO;
    EXPECT_STREQ(makeScheduler(cfg)->name(), "GTO");
    cfg.scheduler = SchedulerKind::CAWA;
    EXPECT_STREQ(makeScheduler(cfg)->name(), "CAWA");
    cfg.scheduler = SchedulerKind::TwoLevel;
    EXPECT_STREQ(makeScheduler(cfg)->name(), "TwoLevel");
}

}  // namespace
}  // namespace bowsim
