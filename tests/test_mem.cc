/**
 * @file
 * Unit tests for physical memory, the set-associative cache, and the
 * memory hierarchy latencies (Table 3).
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/memory_hierarchy.hh"
#include "mem/physical_memory.hh"

namespace dmt
{
namespace
{

TEST(PhysicalMemory, ReadsBackWritesAndZeroes)
{
    PhysicalMemory mem(1 << 20);
    EXPECT_EQ(mem.read64(0x1000), 0u);
    mem.write64(0x1000, 0xdeadbeefull);
    EXPECT_EQ(mem.read64(0x1000), 0xdeadbeefull);
    mem.zeroRange(0x1000, 0x100);
    EXPECT_EQ(mem.read64(0x1000), 0u);
}

TEST(PhysicalMemory, CopyRangeMovesContent)
{
    PhysicalMemory mem(1 << 20);
    for (Addr off = 0; off < 64; off += 8)
        mem.write64(0x2000 + off, off + 1);
    mem.copyRange(0x8000, 0x2000, 64);
    for (Addr off = 0; off < 64; off += 8)
        EXPECT_EQ(mem.read64(0x8000 + off), off + 1);
}

TEST(PhysicalMemory, SparseStorageOnlyKeepsNonzero)
{
    PhysicalMemory mem(1 << 30);
    mem.write64(0x100, 7);
    mem.write64(0x108, 9);
    EXPECT_EQ(mem.wordsInUse(), 2u);
    mem.write64(0x100, 0);
    EXPECT_EQ(mem.wordsInUse(), 1u);
}

TEST(PhysicalMemory, WritingZeroToFreshWordDoesNotInflateCount)
{
    PhysicalMemory mem(1 << 30);
    EXPECT_EQ(mem.wordsInUse(), 0u);
    // A zero store to a never-written word is indistinguishable from
    // not storing at all: no frame materialises, no word counts.
    mem.write64(0x2000, 0);
    EXPECT_EQ(mem.wordsInUse(), 0u);
    EXPECT_EQ(mem.framesInUse(), 0u);
    // Same within an already materialised frame.
    mem.write64(0x2008, 5);
    mem.write64(0x2010, 0);
    EXPECT_EQ(mem.wordsInUse(), 1u);
    EXPECT_EQ(mem.framesInUse(), 1u);
}

TEST(PhysicalMemory, FramesMaterialiseOnDemandAndDropWhenZeroed)
{
    PhysicalMemory mem(1 << 30);
    // Two words in one 4 KB frame, one in another.
    mem.write64(0x4000, 1);
    mem.write64(0x4ff8, 2);
    mem.write64(0x8000, 3);
    EXPECT_EQ(mem.framesInUse(), 2u);
    EXPECT_EQ(mem.wordsInUse(), 3u);
    // Partial zeroRange clears words but keeps the frame.
    mem.zeroRange(0x4000, 8);
    EXPECT_EQ(mem.read64(0x4000), 0u);
    EXPECT_EQ(mem.framesInUse(), 2u);
    EXPECT_EQ(mem.wordsInUse(), 2u);
    // Whole-frame zeroRange drops the frame entirely.
    mem.zeroRange(0x4000, 0x1000);
    EXPECT_EQ(mem.framesInUse(), 1u);
    EXPECT_EQ(mem.wordsInUse(), 1u);
    EXPECT_EQ(mem.read64(0x4ff8), 0u);
    EXPECT_EQ(mem.read64(0x8000), 3u);
}

TEST(PhysicalMemory, CopyRangeTracksNonzeroAcrossFrames)
{
    PhysicalMemory mem(1 << 30);
    // Source straddles a frame boundary at 0x5000.
    mem.write64(0x4ff8, 7);
    mem.write64(0x5000, 8);
    mem.copyRange(0x10ff8, 0x4ff8, 16);
    EXPECT_EQ(mem.read64(0x10ff8), 7u);
    EXPECT_EQ(mem.read64(0x11000), 8u);
    EXPECT_EQ(mem.wordsInUse(), 4u);
    // Copying zeros over the destination un-counts its words; the
    // never-materialised source frame behaves as a zero source.
    mem.copyRange(0x10ff8, 0x20ff8, 16);
    EXPECT_EQ(mem.read64(0x10ff8), 0u);
    EXPECT_EQ(mem.read64(0x11000), 0u);
    EXPECT_EQ(mem.wordsInUse(), 2u);
}

TEST(PhysicalMemory, CopyOfZeroWordsDoesNotMaterialiseDestination)
{
    PhysicalMemory mem(1 << 30);
    // The source frame is live, but the copied span holds only zeros:
    // like write64(0), the copy must not materialise the destination.
    mem.write64(0x4000, 1);
    mem.copyRange(0x9000, 0x4100, 0x100);
    EXPECT_EQ(mem.framesInUse(), 1u);
    EXPECT_EQ(mem.wordsInUse(), 1u);
    // One nonzero word in the span does.
    mem.copyRange(0x9000, 0x4000, 0x100);
    EXPECT_EQ(mem.framesInUse(), 2u);
    EXPECT_EQ(mem.wordsInUse(), 2u);
    EXPECT_EQ(mem.read64(0x9000), 1u);
}

TEST(Cache, HitAfterInsertMissBefore)
{
    Cache cache({"t", 4096, 4, 64, 10});
    EXPECT_FALSE(cache.access(0x1000));
    cache.insert(0x1000);
    EXPECT_TRUE(cache.access(0x1000));
    // Same line, different byte.
    EXPECT_TRUE(cache.access(0x103f));
    // Next line misses.
    EXPECT_FALSE(cache.access(0x1040));
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 4 ways, 1 set: size = 4 * 64.
    Cache cache({"t", 256, 4, 64, 10});
    for (Addr a : {0x0ul, 0x1000ul, 0x2000ul, 0x3000ul})
        cache.insert(a);
    // Touch everything except 0x1000.
    cache.access(0x0);
    cache.access(0x2000);
    cache.access(0x3000);
    cache.insert(0x4000);  // evicts 0x1000
    EXPECT_TRUE(cache.probe(0x0));
    EXPECT_FALSE(cache.probe(0x1000));
    EXPECT_TRUE(cache.probe(0x4000));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache cache({"t", 4096, 4, 64, 10});
    cache.insert(0x5000);
    EXPECT_TRUE(cache.probe(0x5000));
    cache.invalidate(0x5000);
    EXPECT_FALSE(cache.probe(0x5000));
}

TEST(Hierarchy, LatenciesMatchTable3)
{
    MemoryHierarchy mh;
    // Cold: DRAM.
    EXPECT_EQ(mh.access(0x123400), 200u);
    // Now resident everywhere: L1.
    EXPECT_EQ(mh.access(0x123400), 4u);
    // A different line in the same page: DRAM again.
    EXPECT_EQ(mh.access(0x123440), 200u);
}

TEST(Hierarchy, FillPropagatesDownOnEviction)
{
    MemoryHierarchy mh;
    mh.access(0x100000);  // fills L1/L2/LLC
    // Thrash L1 (32 KB, 8-way, 64 sets): fill way past its capacity
    // with same-set lines.
    for (int i = 1; i <= 64; ++i)
        mh.access(0x100000 + static_cast<Addr>(i) * 4096);
    // Should now hit in L2 (14 cycles), not L1.
    const Cycles c = mh.access(0x100000);
    EXPECT_EQ(c, 14u);
}

TEST(Hierarchy, CleanAccessDoesNotAllocate)
{
    MemoryHierarchy mh;
    EXPECT_EQ(mh.accessClean(0x200000), 200u);
    // Still not resident.
    EXPECT_EQ(mh.accessClean(0x200000), 200u);
    // But a clean access hits if the line is already resident.
    mh.access(0x200000);
    EXPECT_EQ(mh.accessClean(0x200000), 4u);
}

TEST(Hierarchy, PrefetchWarmsL2NotL1)
{
    MemoryHierarchy mh;
    mh.prefetch(0x300000);
    EXPECT_EQ(mh.access(0x300000), 14u);  // L2 hit
}

} // namespace
} // namespace dmt
