#include <gtest/gtest.h>

#include "src/common/config.hpp"
#include "src/mem/dram.hpp"
#include "src/mem/interconnect.hpp"
#include "src/mem/l2_bank.hpp"

/**
 * Direct unit tests for the analytic memory-system building blocks:
 * crossbar port serialization, DRAM channel bandwidth (including
 * write-back traffic), and the config-driven atomic service period at
 * the L2 banks. The end-to-end behavior is covered by the kernel and
 * golden-stats suites; these pin the component contracts the commit
 * phase relies on (injection order == service order at every port).
 */

namespace bowsim {
namespace {

TEST(Interconnect, FixedLatencyWhenPortIsFree)
{
    Interconnect icnt(2, 24);
    EXPECT_EQ(icnt.inject(0, 100), 124u);
    EXPECT_EQ(icnt.packets(), 1u);
}

TEST(Interconnect, SamePortSerializesOnePacketPerCycle)
{
    Interconnect icnt(1, 10);
    // Three same-cycle packets leave one per cycle, in injection order.
    EXPECT_EQ(icnt.inject(0, 100), 110u);
    EXPECT_EQ(icnt.inject(0, 100), 111u);
    EXPECT_EQ(icnt.inject(0, 100), 112u);
    // Once the backlog drains, a later packet sees the bare latency.
    EXPECT_EQ(icnt.inject(0, 200), 210u);
    EXPECT_EQ(icnt.packets(), 4u);
}

TEST(Interconnect, PortsAreIndependent)
{
    Interconnect icnt(2, 5);
    EXPECT_EQ(icnt.inject(0, 100), 105u);
    // Port 0's backlog does not delay port 1.
    EXPECT_EQ(icnt.inject(1, 100), 105u);
    EXPECT_EQ(icnt.inject(0, 100), 106u);
    EXPECT_EQ(icnt.packets(), 3u);
}

TEST(Interconnect, LateArrivalStartsWhenItArrives)
{
    Interconnect icnt(1, 3);
    EXPECT_EQ(icnt.inject(0, 7), 10u);
    // The port freed at cycle 8; an arrival at 9 is not back-dated.
    EXPECT_EQ(icnt.inject(0, 9), 12u);
}

TEST(Dram, ServicePeriodCapsBandwidth)
{
    DramChannel dram(220, 4);
    // Three accesses ready at the same cycle serialize on the 4-cycle
    // service period; each still pays the full access latency.
    EXPECT_EQ(dram.schedule(100), 320u);
    EXPECT_EQ(dram.schedule(100), 324u);
    EXPECT_EQ(dram.schedule(100), 328u);
    EXPECT_EQ(dram.accesses(), 3u);
    EXPECT_EQ(dram.writebacks(), 0u);
}

TEST(Dram, WritebackConsumesBandwidthAndCounts)
{
    DramChannel dram(100, 4);
    dram.scheduleWriteback(50);
    EXPECT_EQ(dram.writebacks(), 1u);
    EXPECT_EQ(dram.accesses(), 1u);
    // The write-back occupied the channel: a demand access ready the
    // same cycle queues behind its service period (50 + 4 + latency).
    EXPECT_EQ(dram.schedule(50), 154u);
    EXPECT_EQ(dram.accesses(), 2u);
    EXPECT_EQ(dram.writebacks(), 1u);
}

TEST(L2Bank, AtomicServicePeriodComesFromConfig)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.atomicServicePeriod = 9;
    L2Bank bank(cfg);

    const MemPacket atom{0x40, MemPacket::Type::Atomic, 0, MemScope::Device};
    L2Bank::AccessInfo first, second;
    (void)bank.access(atom, 100, first);
    EXPECT_EQ(first.waited, 0u);
    // The second atomic to the bank queues behind the configured
    // serialization period, not the hard-coded default.
    (void)bank.access(atom, 100, second);
    EXPECT_EQ(second.waited, 9u);
    EXPECT_FALSE(second.miss) << "first atomic should have filled the line";
    EXPECT_EQ(bank.atomics(), 2u);
}

TEST(L2Bank, PlainReadsUseUnitServicePeriod)
{
    GpuConfig cfg = makeGtx480Config();
    cfg.atomicServicePeriod = 9;
    L2Bank bank(cfg);

    const MemPacket rd{0x40, MemPacket::Type::Read, 0, MemScope::Device};
    L2Bank::AccessInfo first, second;
    (void)bank.access(rd, 100, first);
    (void)bank.access(rd, 100, second);
    EXPECT_EQ(first.waited, 0u);
    EXPECT_EQ(second.waited, 1u);
}

}  // namespace
}  // namespace bowsim
