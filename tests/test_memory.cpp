#include <gtest/gtest.h>

#include "src/common/log.hpp"
#include "src/mem/dram.hpp"
#include "src/mem/interconnect.hpp"
#include "src/mem/l2_bank.hpp"
#include "src/mem/memory_space.hpp"

namespace bowsim {
namespace {

// ----------------------------------------------------------- MemorySpace

TEST(MemorySpace, ZeroInitialized)
{
    MemorySpace m;
    EXPECT_EQ(m.read(0x12345, 8), 0);
}

TEST(MemorySpace, ReadBackWrites)
{
    MemorySpace m;
    m.write(0x100, 0x1122334455667788, 8);
    EXPECT_EQ(m.read(0x100, 8), 0x1122334455667788);
}

TEST(MemorySpace, NarrowWritesSignExtendOnRead)
{
    MemorySpace m;
    m.write(0x200, -1, 4);
    EXPECT_EQ(m.read(0x200, 4), -1);
    m.write(0x300, 0x80000000u, 4);
    EXPECT_EQ(m.read(0x300, 4),
              static_cast<Word>(static_cast<std::int32_t>(0x80000000u)));
}

TEST(MemorySpace, NarrowWriteLeavesNeighboursIntact)
{
    MemorySpace m;
    m.write(0x400, 0x0102030405060708, 8);
    m.write(0x400, 0x7f, 4);
    EXPECT_EQ(m.read(0x404, 4), 0x01020304);
}

TEST(MemorySpace, CrossPageBulkCopy)
{
    MemorySpace m;
    std::vector<std::uint8_t> data(10000);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7);
    Addr base = MemorySpace::kPageBytes - 123;  // straddle pages
    m.writeBytes(base, data.data(), data.size());
    std::vector<std::uint8_t> out(data.size());
    m.readBytes(base, out.data(), out.size());
    EXPECT_EQ(data, out);
}

TEST(MemorySpace, AllocatorReturnsAlignedDisjointRegions)
{
    MemorySpace m;
    Addr a = m.allocate(100);
    Addr b = m.allocate(100);
    EXPECT_EQ(a % 256, 0u);
    EXPECT_EQ(b % 256, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_GE(a, MemorySpace::kHeapBase);
}

TEST(MemorySpace, RejectsBadAccessSize)
{
    MemorySpace m;
    EXPECT_THROW(m.read(0, 3), PanicError);
    EXPECT_THROW(m.write(0, 1, 16), PanicError);
}

TEST(MemorySpace, AccessesStraddlingAPageFallBackToChunkedCopy)
{
    constexpr Addr kPage = MemorySpace::kPageBytes;
    MemorySpace m;
    const Addr edge = MemorySpace::kHeapBase + 3 * kPage;
    m.write(edge - 2, 0x11223344, 4);  // two bytes on each side
    m.write(edge + kPage - 3, 0x0102030405060708, 8);  // three and five
    EXPECT_EQ(m.read(edge - 2, 4), 0x11223344);
    EXPECT_EQ(m.read(edge + kPage - 3, 8), 0x0102030405060708);

    // Little-endian bytes on both pages; the neighbours stay zero.
    std::uint8_t bytes[6] = {};
    m.readBytes(edge - 3, bytes, sizeof(bytes));
    const std::uint8_t want[6] = {0, 0x44, 0x33, 0x22, 0x11, 0};
    EXPECT_EQ(std::vector<std::uint8_t>(bytes, bytes + 6),
              std::vector<std::uint8_t>(want, want + 6));

    // A straddling narrow read still sign-extends.
    m.write(edge - 1, -2, 4);
    EXPECT_EQ(m.read(edge - 1, 4), -2);
    EXPECT_EQ(m.read(edge - 2, 4), static_cast<std::int32_t>(0xfffffe44u));

    // Across the table/sparse split: one page of each.
    const Addr split = MemorySpace::kDenseBytes;
    m.write(split - 4, 0x0a0b0c0d0e0f1011, 8);
    EXPECT_EQ(m.read(split - 4, 8), 0x0a0b0c0d0e0f1011);
    EXPECT_EQ(m.read(split, 4), 0x0a0b0c0d);
    EXPECT_EQ(m.read(split - 4, 4), 0x0e0f1011);
}

TEST(MemorySpace, LowAndFarAddressesReadBackWithoutGrowingTheTable)
{
    MemorySpace m;
    const Addr low = 0x100;  // below kHeapBase: the null region
    const Addr far = Addr{1} << 40;
    const Addr top = 0xFFFF'FFFF'FFFF'FFF8ull;
    m.write(low, 11, 8);
    m.write(far, 22, 8);
    m.write(top, 33, 8);
    m.write(far + MemorySpace::kPageBytes - 2, -3, 2);
    EXPECT_EQ(m.read(low, 8), 11);
    EXPECT_EQ(m.read(far, 8), 22);
    EXPECT_EQ(m.read(top, 8), 33);
    EXPECT_EQ(m.read(far + MemorySpace::kPageBytes - 2, 2), -3);
    EXPECT_EQ(m.read(far + 8, 8), 0);
    EXPECT_EQ(m.read(Addr{1} << 50, 8), 0);  // never written
    EXPECT_EQ(m.read(0x12345, 8), 0);
    // Only the low page took a table slot; the far ones are sparse.
    EXPECT_EQ(m.tableSlots(), 1u);
}

TEST(MemorySpace, DigestIsIndependentOfWriteOrder)
{
    constexpr Addr kPage = MemorySpace::kPageBytes;
    const std::vector<std::pair<Addr, Word>> writes = {
        {0x100, 1},
        {MemorySpace::kHeapBase + 0x1234, 2},
        {MemorySpace::kHeapBase + 5 * kPage - 4, -1},  // straddles
        {MemorySpace::kDenseBytes - 8, 3},
        {MemorySpace::kDenseBytes + 8, 4},
        {Addr{1} << 40, 5},
        {0xFFFF'FFFF'FFFF'FFF8ull, 6},
    };
    MemorySpace forward;
    MemorySpace backward;
    for (const auto &[addr, value] : writes)
        forward.write(addr, value, 8);
    for (auto it = writes.rbegin(); it != writes.rend(); ++it)
        backward.write(it->first, it->second, 8);
    EXPECT_EQ(forward.digest(), backward.digest());
    // Recorded with the hash-map page store the page table replaced:
    // the digest walks pages in address order, so its bytes are kept.
    EXPECT_EQ(forward.digest(), 0xaf1bea81a83406c4ull);

    // The same bytes written through the bulk path digest the same too.
    MemorySpace bulk;
    for (auto it = writes.rbegin(); it != writes.rend(); ++it)
        bulk.writeBytes(it->first, &it->second, 8);
    EXPECT_EQ(bulk.digest(), forward.digest());
}

TEST(MemorySpace, PageWrittenBackToZeroDigestsLikeUntouched)
{
    const std::uint64_t untouched = MemorySpace{}.digest();
    for (Addr a : {Addr{0x100}, MemorySpace::kHeapBase + 0x40,
                   MemorySpace::kDenseBytes + 0x40, Addr{1} << 40}) {
        MemorySpace m;
        m.write(a, -1, 8);
        EXPECT_NE(m.digest(), untouched) << a;
        m.write(a, 0, 8);
        EXPECT_EQ(m.digest(), untouched) << a;
    }
}

// -------------------------------------------------------------- timing --

TEST(Dram, LatencyAppliesToIsolatedAccess)
{
    DramChannel d(200, 4);
    EXPECT_EQ(d.schedule(1000), 1200u);
}

TEST(Dram, ServicePeriodLimitsBandwidth)
{
    DramChannel d(200, 4);
    Cycle first = d.schedule(0);
    Cycle second = d.schedule(0);
    Cycle third = d.schedule(0);
    EXPECT_EQ(first, 200u);
    EXPECT_EQ(second, 204u);
    EXPECT_EQ(third, 208u);
    EXPECT_EQ(d.accesses(), 3u);
}

TEST(Dram, WritebackConsumesBandwidth)
{
    DramChannel d(100, 10);
    d.scheduleWriteback(0);
    EXPECT_EQ(d.schedule(0), 110u);  // queued behind the writeback
    EXPECT_EQ(d.writebacks(), 1u);
}

TEST(Interconnect, PortSerializesOnePacketPerCycle)
{
    Interconnect icnt(2, 24);
    EXPECT_EQ(icnt.inject(0, 100), 124u);
    EXPECT_EQ(icnt.inject(0, 100), 125u);
    EXPECT_EQ(icnt.inject(1, 100), 124u);  // other port independent
    EXPECT_EQ(icnt.packets(), 3u);
}

GpuConfig
memTestConfig()
{
    GpuConfig cfg = makeGtx480Config();
    cfg.numL2Banks = 2;
    return cfg;
}

TEST(MemorySystem, ReadMissGoesToDramThenHits)
{
    GpuConfig cfg = memTestConfig();
    MemorySystem mem(cfg);
    MemPacket pkt{0x10000, MemPacket::Type::Read, 0, MemScope::Device};
    Cycle miss = mem.request(pkt, 0);
    // Miss path: icnt + L2 tag + DRAM + return icnt.
    Cycle expected_min = 2 * kIcntLatency + cfg.l2HitLatency +
                         cfg.dramLatency;
    EXPECT_GE(miss, expected_min);

    Cycle hit = mem.request(pkt, miss);
    EXPECT_LT(hit - miss, expected_min);
    EXPECT_EQ(mem.stats().l2Hits, 1u);
    EXPECT_EQ(mem.stats().l2Misses, 1u);
}

TEST(MemorySystem, WritesReturnNoReplyButCountTraffic)
{
    MemorySystem mem(memTestConfig());
    MemPacket pkt{0x20000, MemPacket::Type::Write, 0, MemScope::Device};
    EXPECT_EQ(mem.request(pkt, 0), 0u);
    EXPECT_EQ(mem.stats().l2Accesses, 1u);
}

TEST(MemorySystem, AtomicsToOneBankSerialize)
{
    GpuConfig cfg = memTestConfig();
    MemorySystem mem(cfg);
    // Same line -> same bank; atomics pay the per-bank atomic period.
    Cycle t1 = mem.request({0x30000, MemPacket::Type::Atomic, 0, MemScope::Device}, 0);
    Cycle t2 = mem.request({0x30008, MemPacket::Type::Atomic, 1, MemScope::Device}, 0);
    Cycle t3 = mem.request({0x30010, MemPacket::Type::Atomic, 2, MemScope::Device}, 0);
    EXPECT_LT(t1, t2);
    EXPECT_LT(t2, t3);
    EXPECT_EQ(mem.stats().atomics, 3u);
}

TEST(MemorySystem, DifferentBanksProceedInParallel)
{
    GpuConfig cfg = memTestConfig();
    MemorySystem mem(cfg);
    // Consecutive lines map to different banks (2 banks).
    Cycle a = mem.request({0x40000, MemPacket::Type::Atomic, 0, MemScope::Device}, 0);
    Cycle b = mem.request({0x40080, MemPacket::Type::Atomic, 1, MemScope::Device}, 0);
    EXPECT_EQ(a, b);  // no serialization across banks
}

TEST(MemorySystem, BankCongestionGrowsLatency)
{
    GpuConfig cfg = memTestConfig();
    MemorySystem mem(cfg);
    // Prime the line so every atomic hits in the L2 and timing is pure
    // bank serialization.
    (void)mem.request({0x50000, MemPacket::Type::Read, 0, MemScope::Device}, 0);
    Cycle first = 0;
    Cycle last = 0;
    for (unsigned i = 0; i < 16; ++i) {
        Cycle done = mem.request(
            {0x50000 + 8 * i, MemPacket::Type::Atomic, i % cfg.numCores,
             MemScope::Device},
            1000);
        if (i == 0)
            first = done;
        EXPECT_GE(done, last);
        last = done;
    }
    // 15 atomics queued behind the first, each paying the per-bank
    // atomic service period.
    EXPECT_GE(last, first + 4 * 15);
}

}  // namespace
}  // namespace bowsim
