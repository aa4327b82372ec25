/**
 * @file
 * Unit tests for physical memory, the set-associative cache, and the
 * memory hierarchy latencies (Table 3).
 */

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/rng.hh"
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

/**
 * PhysicalMemory::copyRange against Memory's word loop (the base-class
 * body, called non-virtually on a second store). Words and wordsInUse
 * must match exactly. framesInUse is checked against a per-frame model
 * of the store's contract: a frame goes live when a nonzero word lands
 * in it, and a whole-frame copy of a zero source drops it again.
 */
class CopyRangeDifferential
{
  public:
    static constexpr Addr frames = 64;
    static constexpr Addr frame = 4096;

    CopyRangeDifferential()
        : ranged_(frames * frame), wordwise_(frames * frame),
          live_(frames, false)
    {
    }

    void
    write(Addr pa, std::uint64_t value)
    {
        ranged_.write64(pa, value);
        wordwise_.write64(pa, value);
        if (value != 0)
            live_[pa / frame] = true;
    }

    void
    copy(Addr dst, Addr src, Addr bytes, const char *what)
    {
        SCOPED_TRACE(what);
        // Model the liveness outcome chunk by chunk, with chunks split
        // at frame boundaries on both sides as the store splits them.
        for (Addr d = dst, s = src, left = bytes; left > 0;) {
            const Addr chunk = std::min(
                {left, frame - d % frame, frame - s % frame});
            bool nonzero = false;
            for (Addr off = 0; off < chunk; off += 8)
                nonzero = nonzero || wordwise_.read64(s + off) != 0;
            if (nonzero)
                live_[d / frame] = true;
            else if (chunk == frame)
                live_[d / frame] = false;
            d += chunk;
            s += chunk;
            left -= chunk;
        }
        ranged_.copyRange(dst, src, bytes);
        wordwise_.Memory::copyRange(dst, src, bytes);
        expectSame();
    }

    void
    expectSame() const
    {
        const auto a = ranged_.readWindow();
        const auto b = wordwise_.readWindow();
        const std::size_t words = static_cast<std::size_t>(a.bytes >> 3);
        if (std::memcmp(a.words, b.words, words * 8) != 0) {
            for (std::size_t w = 0; w < words; ++w) {
                ASSERT_EQ(a.words[w], b.words[w])
                    << "word at 0x" << std::hex << (w * 8);
            }
        }
        EXPECT_EQ(ranged_.wordsInUse(), wordwise_.wordsInUse());
        EXPECT_EQ(ranged_.framesInUse(),
                  static_cast<std::size_t>(
                      std::count(live_.begin(), live_.end(), true)));
    }

  private:
    PhysicalMemory ranged_;
    PhysicalMemory wordwise_;
    std::vector<bool> live_;
};

TEST(PhysicalMemory, CopyRangeMatchesWordLoopOnListedCases)
{
    constexpr Addr F = CopyRangeDifferential::frame;
    CopyRangeDifferential rig;
    // Frames 0-7 and 16-23 hold seeded data with a quarter of the
    // words zero; frame 8 is live but all zero; the rest never live.
    Rng rng(0xc0b1);
    for (const Addr first : {Addr{0}, 16 * F}) {
        for (Addr off = 0; off < 8 * F; off += 8)
            rig.write(first + off,
                      rng.below(4) == 0 ? 0 : rng.next() | 1);
    }
    rig.write(8 * F + 0x40, 5);
    rig.write(8 * F + 0x40, 0);
    rig.expectSame();

    rig.copy(9 * F, 0, 2 * F, "whole frames into frames not live");
    rig.copy(16 * F, 2 * F, 2 * F,
             "whole frames over live frames holding data");
    rig.copy(18 * F + 0x208, 4 * F + 0xe38, F + 0x1f0,
             "partial chunks over live frames holding data");
    rig.copy(12 * F + 0x40, 5 * F + 0x10, 0x300,
             "partial chunk into a frame not live");
    rig.copy(20 * F, 8 * F, F,
             "whole frame from a live all-zero source");
    rig.copy(21 * F + 0x100, 8 * F + 0x80, 0x200,
             "partial chunk from a live all-zero source");
    rig.copy(22 * F, 30 * F, F, "whole frame from a source not live");
    rig.copy(13 * F + 8, 31 * F, 0x100,
             "partial chunk from a source not live");
    rig.copy(23 * F + 0x800, 6 * F + 0x10, 3 * F,
             "multi-frame span over live and not-live frames");
    rig.copy(40 * F, 16 * F, 4 * F,
             "whole frames read back from earlier copies");
}

TEST(PhysicalMemory, CopyRangeMatchesWordLoopOnSeededOps)
{
    constexpr Addr F = CopyRangeDifferential::frame;
    constexpr Addr span = CopyRangeDifferential::frames * F;
    CopyRangeDifferential rig;
    Rng rng(0x5eed5);
    for (int step = 0; step < 600; ++step) {
        SCOPED_TRACE(testing::Message() << "step " << step);
        if (rng.below(3) == 0) {
            const Addr pa = rng.below(span / 8) * 8;
            rig.write(pa, rng.below(3) == 0 ? 0 : rng.next() | 1);
            continue;
        }
        // Half the copies move whole frames, half arbitrary words.
        const bool whole = rng.below(2) == 0;
        const Addr bytes =
            whole ? (1 + rng.below(3)) * F : 8 * (1 + rng.below(1200));
        Addr dst = 0;
        Addr src = 0;
        do {
            dst = whole ? rng.below(span / F - 3) * F
                        : rng.below((span - bytes) / 8) * 8;
            src = whole ? rng.below(span / F - 3) * F
                        : rng.below((span - bytes) / 8) * 8;
        } while (dst < src + bytes && src < dst + bytes);
        rig.copy(dst, src, bytes, whole ? "whole frames" : "words");
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

/** Minor page faults this thread has taken so far. */
long
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    return usage.ru_minflt;
}

TEST(PhysicalMemory, CopyIntoFramesNotLiveFaultsEachPageOnce)
{
    // A destination frame that is not live reads as zero, so the copy
    // must not read it: scanning it first would fault the host zero
    // page in, and the memcpy would then fault the page a second time.
    constexpr Addr pages = 256;
    PhysicalMemory mem(4 * pages * 4096);
    for (Addr p = 0; p < pages; ++p)
        mem.write64(p * 4096, p + 1);
    const long before = minorFaults();
    mem.copyRange(2 * pages * 4096, 0, pages * 4096);
    const long faults = minorFaults() - before;
    EXPECT_LE(faults, static_cast<long>(pages + pages / 2));
    EXPECT_EQ(mem.framesInUse(), 2 * pages);
    EXPECT_EQ(mem.read64((2 * pages + 7) * 4096), 8u);
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
