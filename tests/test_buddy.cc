/**
 * @file
 * Unit and property tests for the buddy allocator: alloc/free
 * round-trips, coalescing, contiguous runs, in-place expansion,
 * fragmentation index, and compaction.
 */

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "os/buddy_allocator.hh"
#include "os/fragmenter.hh"

namespace dmt
{
namespace
{

TEST(Buddy, FreshAllocatorIsFullyFree)
{
    BuddyAllocator alloc(1024);
    EXPECT_EQ(alloc.freeFrames(), 1024u);
    alloc.checkConsistency();
}

TEST(Buddy, AllocFreeRoundTripRestoresEverything)
{
    BuddyAllocator alloc(1 << 14);
    std::vector<std::pair<Pfn, int>> blocks;
    for (int order : {0, 3, 5, 0, 9, 1, 4}) {
        auto pfn = alloc.allocPages(order, FrameKind::Movable);
        ASSERT_TRUE(pfn.has_value());
        EXPECT_EQ(*pfn & ((Pfn{1} << order) - 1), 0u)
            << "block must be naturally aligned";
        blocks.emplace_back(*pfn, order);
    }
    alloc.checkConsistency();
    for (auto [pfn, order] : blocks)
        alloc.freePages(pfn, order);
    EXPECT_EQ(alloc.freeFrames(), Pfn{1} << 14);
    alloc.checkConsistency();
    // Coalescing restored the maximal block.
    auto big = alloc.allocPages(14, FrameKind::Movable);
    EXPECT_TRUE(big.has_value());
}

TEST(Buddy, DistinctBlocksDoNotOverlap)
{
    BuddyAllocator alloc(1 << 12);
    std::set<Pfn> used;
    std::vector<Pfn> singles;
    while (true) {
        auto pfn = alloc.allocPages(0, FrameKind::Unmovable);
        if (!pfn)
            break;
        EXPECT_TRUE(used.insert(*pfn).second)
            << "frame handed out twice";
        singles.push_back(*pfn);
    }
    EXPECT_EQ(singles.size(), std::size_t{1} << 12);
    for (Pfn pfn : singles)
        alloc.freePages(pfn, 0);
    alloc.checkConsistency();
}

TEST(Buddy, ContiguousRunIsActuallyContiguousAndOwned)
{
    BuddyAllocator alloc(1 << 12);
    // Punch some holes first.
    auto a = alloc.allocPages(4, FrameKind::Unmovable);
    auto b = alloc.allocPages(6, FrameKind::Unmovable);
    ASSERT_TRUE(a && b);
    alloc.freePages(*a, 4);

    auto run = alloc.allocContig(777, FrameKind::PageTable);
    ASSERT_TRUE(run.has_value());
    for (Pfn i = 0; i < 777; ++i)
        EXPECT_EQ(alloc.kindOf(*run + i), FrameKind::PageTable);
    alloc.checkConsistency();
    alloc.freeContig(*run, 777);
    alloc.freePages(*b, 6);
    EXPECT_EQ(alloc.freeFrames(), Pfn{1} << 12);
    alloc.checkConsistency();
}

TEST(Buddy, ContigFailsWhenOnlyFragmentsRemain)
{
    BuddyAllocator alloc(256);
    Fragmenter fragmenter(alloc);
    fragmenter.fragment(0.5);
    // Half the memory is free, but only as isolated frames.
    EXPECT_GT(alloc.freeFrames(), 100u);
    EXPECT_FALSE(alloc.allocContig(2, FrameKind::PageTable));
    EXPECT_TRUE(alloc.allocContig(1, FrameKind::PageTable));
    alloc.checkConsistency();
}

TEST(Buddy, ExpandInPlaceClaimsFollowingFrames)
{
    BuddyAllocator alloc(1024);
    auto run = alloc.allocContig(10, FrameKind::PageTable);
    ASSERT_TRUE(run.has_value());
    EXPECT_TRUE(alloc.expandInPlace(*run, 10, 6,
                                    FrameKind::PageTable));
    for (Pfn i = 0; i < 16; ++i)
        EXPECT_EQ(alloc.kindOf(*run + i), FrameKind::PageTable);
    // Blocking frame prevents expansion.
    auto blocker = alloc.allocContig(1, FrameKind::Unmovable);
    ASSERT_TRUE(blocker.has_value());
    ASSERT_EQ(*blocker, *run + 16);
    EXPECT_FALSE(alloc.expandInPlace(*run, 16, 1,
                                     FrameKind::PageTable));
    alloc.freeContig(*run, 16);
    alloc.freePages(*blocker, 0);
    alloc.checkConsistency();
}

TEST(Buddy, ShrinkInPlaceReleasesTail)
{
    BuddyAllocator alloc(1024);
    auto run = alloc.allocContig(32, FrameKind::PageTable);
    ASSERT_TRUE(run.has_value());
    alloc.shrinkInPlace(*run, 32, 8);
    EXPECT_EQ(alloc.kindOf(*run + 7), FrameKind::PageTable);
    EXPECT_EQ(alloc.kindOf(*run + 8), FrameKind::Free);
    alloc.freeContig(*run, 8);
    EXPECT_EQ(alloc.freeFrames(), 1024u);
    alloc.checkConsistency();
}

TEST(Buddy, FragmentationIndexTracksFragmentation)
{
    BuddyAllocator alloc(1 << 14);
    // Pristine memory: high-order requests are satisfiable.
    EXPECT_LT(alloc.fragmentationIndex(9), 0.0);
    Fragmenter fragmenter(alloc);
    fragmenter.fragment(0.4);
    // Now only isolated frames are free: FMFI near 1 (paper: 0.99).
    const double fi = alloc.fragmentationIndex(9);
    EXPECT_GT(fi, 0.95);
    fragmenter.release();
    EXPECT_LT(alloc.fragmentationIndex(9), 0.0);
}

TEST(Buddy, CompactionCreatesContiguityAndInvokesHook)
{
    BuddyAllocator alloc(512);
    // Alternate movable allocations and holes.
    std::vector<Pfn> movable;
    for (int i = 0; i < 256; ++i) {
        auto a = alloc.allocPages(0, FrameKind::Movable);
        auto b = alloc.allocPages(0, FrameKind::Unmovable);
        ASSERT_TRUE(a && b);
        movable.push_back(*a);
    }
    // Free the unmovable ones to create holes... they were pinned;
    // instead free half the movable frames to fragment.
    // Free every other *movable* frame.
    for (std::size_t i = 0; i < movable.size(); i += 2)
        alloc.freePages(movable[i], 0);

    std::size_t hookCalls = 0;
    alloc.setRelocationHook([&](Pfn, Pfn) { ++hookCalls; });
    const auto moved = alloc.compact();
    EXPECT_EQ(moved, hookCalls);
    alloc.checkConsistency();
}

TEST(Buddy, RandomizedStressKeepsInvariants)
{
    Rng rng(123);
    BuddyAllocator alloc(1 << 13);
    std::vector<std::pair<Pfn, int>> live;
    for (int step = 0; step < 4000; ++step) {
        if (live.empty() || rng.below(100) < 60) {
            const int order = static_cast<int>(rng.below(6));
            auto pfn = alloc.allocPages(order, FrameKind::Movable);
            if (pfn)
                live.emplace_back(*pfn, order);
        } else {
            const auto idx = rng.below(live.size());
            alloc.freePages(live[idx].first, live[idx].second);
            live[idx] = live.back();
            live.pop_back();
        }
        if (step % 500 == 0)
            alloc.checkConsistency();
    }
    for (auto [pfn, order] : live)
        alloc.freePages(pfn, order);
    EXPECT_EQ(alloc.freeFrames(), Pfn{1} << 13);
    alloc.checkConsistency();
}

/** Brute-force first fit: the lowest run of n free frames. */
std::optional<Pfn>
lowestFreeRun(const BuddyAllocator &alloc, std::uint64_t n)
{
    std::uint64_t run = 0;
    for (Pfn pfn = 0; pfn < alloc.numFrames(); ++pfn) {
        run = alloc.isFree(pfn) ? run + 1 : 0;
        if (run == n)
            return pfn + 1 - n;
    }
    return std::nullopt;
}

/**
 * A seeded, fragmented allocator: fill it with blocks of mixed orders
 * and kinds, then free a random half, leaving free runs both shorter
 * and longer than the requests below.
 */
void
fragmentMixed(BuddyAllocator &alloc, std::uint64_t seed)
{
    Rng rng(seed);
    const FrameKind kinds[] = {FrameKind::Movable, FrameKind::Unmovable,
                               FrameKind::PageTable};
    std::vector<std::pair<Pfn, int>> blocks;
    for (;;) {
        const int order = static_cast<int>(rng.below(4));
        auto pfn = alloc.allocPages(order, kinds[rng.below(3)]);
        if (!pfn) {
            pfn = alloc.allocPages(0, kinds[rng.below(3)]);
            if (!pfn)
                break;
            blocks.emplace_back(*pfn, 0);
            continue;
        }
        blocks.emplace_back(*pfn, order);
    }
    for (auto [pfn, order] : blocks) {
        if (rng.below(2) == 0)
            alloc.freePages(pfn, order);
    }
}

TEST(Buddy, AllocContigReturnsLowestFittingRun)
{
    constexpr Pfn frames = 1 << 12;
    for (const std::uint64_t seed : {77, 78, 79, 80}) {
        std::uint64_t longest = 0;
        {
            BuddyAllocator alloc(frames);
            fragmentMixed(alloc, seed);
            while (lowestFreeRun(alloc, longest + 1))
                ++longest;
        }
        // Free runs both shorter and longer than most requests exist.
        ASSERT_GE(longest, 8u);
        ASSERT_LT(longest, frames / 4);
        // Each request on a fresh copy of the same fragmented state,
        // up to one frame past the longest run (the no-fit case).
        for (std::uint64_t n = 1; n <= longest + 1; ++n) {
            SCOPED_TRACE(testing::Message() << "seed " << seed
                                            << ", " << n << " pages");
            BuddyAllocator alloc(frames);
            fragmentMixed(alloc, seed);
            const auto expected = lowestFreeRun(alloc, n);
            const auto freeBefore = alloc.freeFrames();
            const auto got = alloc.allocContig(n, FrameKind::PageTable);
            ASSERT_EQ(got, expected);
            ASSERT_EQ(got.has_value(), n <= longest);
            if (got) {
                EXPECT_EQ(alloc.freeFrames(), freeBefore - n);
                for (Pfn pfn = *got; pfn < *got + n; ++pfn)
                    EXPECT_EQ(alloc.kindOf(pfn), FrameKind::PageTable);
            } else {
                EXPECT_EQ(alloc.freeFrames(), freeBefore);
            }
            alloc.checkConsistency();
        }
    }
}

TEST(Buddy, AllocContigFindsRunsAtTheEndOfMemory)
{
    BuddyAllocator alloc(64);
    ASSERT_EQ(alloc.allocContig(63, FrameKind::Unmovable), Pfn{0});
    // Only the last frame is left.
    EXPECT_FALSE(alloc.allocContig(2, FrameKind::PageTable));
    ASSERT_EQ(alloc.allocContig(1, FrameKind::PageTable), Pfn{63});
    EXPECT_FALSE(alloc.allocContig(1, FrameKind::PageTable));
    // A run that ends exactly at the last frame.
    alloc.freeContig(60, 4);
    EXPECT_EQ(alloc.allocContig(4, FrameKind::PageTable), Pfn{60});
    alloc.checkConsistency();
}

/**
 * Reference model of the buddy allocator: one std::set of free bases
 * per order plus a per-frame kind, with every choice written the
 * plain way. allocPages takes the lowest base of the smallest order
 * that fits, allocContig the lowest run of free frames, compact moves
 * the highest movable frame into the lowest free one.
 */
class SetBuddy
{
  public:
    SetBuddy(Pfn frames, int max_order)
        : frames_(frames), maxOrder_(max_order), lists_(max_order + 1),
          kinds_(frames, FrameKind::Free)
    {
        addFree(0, frames);
    }

    std::optional<Pfn>
    allocPages(int order, FrameKind kind)
    {
        int o = order;
        while (o <= maxOrder_ && lists_[o].empty())
            ++o;
        if (o > maxOrder_)
            return std::nullopt;
        const Pfn base = *lists_[o].begin();
        lists_[o].erase(lists_[o].begin());
        while (o > order) {
            --o;
            lists_[o].insert(base + (Pfn{1} << o));
        }
        setKind(base, Pfn{1} << order, kind);
        return base;
    }

    void
    freeRange(Pfn base, std::uint64_t n)
    {
        setKind(base, n, FrameKind::Free);
        addFree(base, n);
    }

    std::optional<Pfn>
    allocContig(std::uint64_t n, FrameKind kind)
    {
        std::uint64_t run = 0;
        for (Pfn pfn = 0; pfn < frames_; ++pfn) {
            run = kinds_[pfn] == FrameKind::Free ? run + 1 : 0;
            if (run == n) {
                claim(pfn + 1 - n, pfn + 1, kind);
                return pfn + 1 - n;
            }
        }
        return std::nullopt;
    }

    bool
    expandInPlace(Pfn base, std::uint64_t cur, std::uint64_t extra,
                  FrameKind kind)
    {
        const Pfn start = base + cur;
        const Pfn end = start + extra;
        if (end > frames_)
            return false;
        for (Pfn pfn = start; pfn < end; ++pfn) {
            if (kinds_[pfn] != FrameKind::Free)
                return false;
        }
        claim(start, end, kind);
        return true;
    }

    /** @return the (from, to) moves, in order. */
    std::vector<std::pair<Pfn, Pfn>>
    compact(std::uint64_t max_moves)
    {
        std::vector<std::pair<Pfn, Pfn>> moves;
        while (max_moves == 0 || moves.size() < max_moves) {
            Pfn lowFree = 0;
            while (lowFree < frames_ &&
                   kinds_[lowFree] != FrameKind::Free)
                ++lowFree;
            Pfn highMovable = frames_;
            while (highMovable > 0 &&
                   kinds_[highMovable - 1] != FrameKind::Movable)
                --highMovable;
            if (highMovable == 0 || lowFree + 1 >= highMovable)
                break;
            claim(lowFree, lowFree + 1, FrameKind::Movable);
            freeRange(highMovable - 1, 1);
            moves.emplace_back(highMovable - 1, lowFree);
        }
        return moves;
    }

    std::size_t
    freeBlocksAt(int order) const
    {
        return lists_[order].size();
    }

    FrameKind kindOf(Pfn pfn) const { return kinds_[pfn]; }

  private:
    void
    setKind(Pfn base, std::uint64_t n, FrameKind kind)
    {
        for (Pfn pfn = base; pfn < base + n; ++pfn)
            kinds_[pfn] = kind;
    }

    /** Insert one block, merging with its free buddy while possible. */
    void
    insert(Pfn base, int order)
    {
        for (; order < maxOrder_; ++order) {
            const Pfn buddy = base ^ (Pfn{1} << order);
            if (buddy + (Pfn{1} << order) > frames_ ||
                lists_[order].erase(buddy) == 0)
                break;
            base = std::min(base, buddy);
        }
        lists_[order].insert(base);
    }

    /** Hand [base, base + n) back as maximal aligned blocks. */
    void
    addFree(Pfn base, std::uint64_t n)
    {
        while (n > 0) {
            int o = maxOrder_;
            if (base != 0)
                o = std::min(o, std::countr_zero(base));
            while ((std::uint64_t{1} << o) > n)
                --o;
            insert(base, o);
            base += Pfn{1} << o;
            n -= std::uint64_t{1} << o;
        }
    }

    /** Take [start, end) out of every free block overlapping it. */
    void
    claim(Pfn start, Pfn end, FrameKind kind)
    {
        std::vector<std::pair<Pfn, Pfn>> cut;
        for (int o = 0; o <= maxOrder_; ++o) {
            auto &list = lists_[o];
            // A block below start's aligned base ends at or before it.
            auto it = list.lower_bound(start >> o << o);
            while (it != list.end() && *it < end) {
                cut.emplace_back(*it, *it + (Pfn{1} << o));
                it = list.erase(it);
            }
        }
        setKind(start, end - start, kind);
        for (const auto &[lo, hi] : cut) {
            if (lo < start)
                addFree(lo, start - lo);
            if (hi > end)
                addFree(end, hi - end);
        }
    }

    Pfn frames_;
    int maxOrder_;
    std::vector<std::set<Pfn>> lists_;
    std::vector<FrameKind> kinds_;
};

/**
 * Drive BuddyAllocator and the std::set model through the same seeded
 * sequence of allocPages, freePages, allocContig, freeContig,
 * expandInPlace, shrinkInPlace and compact: every returned pfn, every
 * compaction move, every freeBlocksAt value and every frame's kind
 * must agree, and checkConsistency must hold after each step.
 */
void
checkAgainstSetModel(Pfn frames, int max_order, std::uint64_t seed)
{
    BuddyAllocator alloc(frames, max_order);
    SetBuddy model(frames, max_order);
    std::vector<std::pair<Pfn, Pfn>> moves;
    alloc.setRelocationHook(
        [&](Pfn from, Pfn to) { moves.emplace_back(from, to); });

    struct Block
    {
        Pfn base;
        std::uint64_t pages;
        bool contig;  // allocContig run, else a 2^order block
    };
    std::vector<Block> live;
    Rng rng(seed);
    const FrameKind pinned[] = {FrameKind::Unmovable,
                                FrameKind::PageTable};
    for (int step = 0; step < 3000; ++step) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << ", step "
                                        << step);
        const auto pick = rng.below(100);
        if (pick < 35 || live.empty()) {
            // Movable blocks are single frames: compaction moves
            // 4 KB frames, as it does for data pages.
            const bool movable = rng.below(3) == 0;
            const int order =
                movable ? 0 : static_cast<int>(rng.below(7));
            const FrameKind kind =
                movable ? FrameKind::Movable : pinned[rng.below(2)];
            const auto got = alloc.allocPages(order, kind);
            ASSERT_EQ(got, model.allocPages(order, kind)) << "order "
                                                           << order;
            if (got)
                live.push_back({*got, std::uint64_t{1} << order, false});
        } else if (pick < 50) {
            const std::uint64_t n = 1 + rng.below(96);
            const FrameKind kind = pinned[rng.below(2)];
            const auto got = alloc.allocContig(n, kind);
            ASSERT_EQ(got, model.allocContig(n, kind)) << n << " pages";
            if (got)
                live.push_back({*got, n, true});
        } else if (pick < 75) {
            const auto idx = rng.below(live.size());
            const Block b = live[idx];
            if (b.contig)
                alloc.freeContig(b.base, b.pages);
            else
                alloc.freePages(b.base, std::countr_zero(b.pages));
            model.freeRange(b.base, b.pages);
            live[idx] = live.back();
            live.pop_back();
        } else if (pick < 85) {
            const auto idx = rng.below(live.size());
            Block &b = live[idx];
            if (!b.contig)
                continue;
            const std::uint64_t extra = 1 + rng.below(24);
            const FrameKind kind = alloc.kindOf(b.base);
            const bool grew =
                alloc.expandInPlace(b.base, b.pages, extra, kind);
            ASSERT_EQ(grew,
                      model.expandInPlace(b.base, b.pages, extra, kind));
            if (grew)
                b.pages += extra;
        } else if (pick < 95) {
            const auto idx = rng.below(live.size());
            Block &b = live[idx];
            if (!b.contig)
                continue;
            const std::uint64_t keep = 1 + rng.below(b.pages);
            alloc.shrinkInPlace(b.base, b.pages, keep);
            model.freeRange(b.base + keep, b.pages - keep);
            b.pages = keep;
        } else {
            const std::uint64_t maxMoves = rng.below(40);
            moves.clear();
            const auto done = alloc.compact(maxMoves);
            const auto want = model.compact(maxMoves);
            ASSERT_EQ(moves, want);
            ASSERT_EQ(done, want.size());
            for (Block &b : live) {
                for (const auto &[from, to] : want) {
                    if (b.base == from)
                        b.base = to;
                }
            }
        }
        for (int o = 0; o <= max_order; ++o)
            ASSERT_EQ(alloc.freeBlocksAt(o), model.freeBlocksAt(o))
                << "order " << o;
        alloc.checkConsistency();
        if (step % 250 == 0) {
            for (Pfn pfn = 0; pfn < frames; ++pfn)
                ASSERT_EQ(alloc.kindOf(pfn), model.kindOf(pfn))
                    << "pfn " << pfn;
        }
    }
}

TEST(Buddy, MatchesSetModelOnSeededOps)
{
    checkAgainstSetModel(1 << 12, 18, 101);
}

TEST(Buddy, MatchesSetModelWithARaggedTail)
{
    // A frame count that is no power of two leaves short blocks at
    // the top of memory that never coalesce past the end.
    checkAgainstSetModel((1 << 12) + 77, 8, 202);
}

} // namespace
} // namespace dmt
