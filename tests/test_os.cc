/**
 * @file
 * Unit tests for the VMA tree and the address space (demand paging,
 * THP, munmap, growth, backing replacement, compaction fix-up).
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "check/invariant_auditor.hh"
#include "mem/physical_memory.hh"
#include "os/address_space.hh"

namespace dmt
{
namespace
{

struct Observer : public VmaObserver
{
    int created = 0, destroyed = 0, resized = 0;
    void onVmaCreated(const Vma &) override { ++created; }
    void onVmaDestroyed(const Vma &) override { ++destroyed; }
    void onVmaResized(const Vma &, const Vma &) override
    {
        ++resized;
    }
};

TEST(VmaTree, CreateFindDestroy)
{
    VmaTree tree;
    tree.create(0x1000, 0x5000, VmaKind::Heap);
    EXPECT_EQ(tree.count(), 1u);
    const Vma *vma = tree.find(0x2abc);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->base, 0x1000u);
    EXPECT_EQ(tree.find(0x6000), nullptr);
    EXPECT_EQ(tree.find(0xfff), nullptr);
    tree.destroy(0x1000);
    EXPECT_EQ(tree.count(), 0u);
}

TEST(VmaTree, ObserverSeesLifecycle)
{
    VmaTree tree;
    Observer obs;
    tree.addObserver(&obs);
    tree.create(0x1000, 0x4000, VmaKind::Heap);
    tree.grow(0x1000, 0x8000);
    tree.shrink(0x1000, 0x2000);
    tree.destroy(0x1000);
    EXPECT_EQ(obs.created, 1);
    EXPECT_EQ(obs.resized, 2);
    EXPECT_EQ(obs.destroyed, 1);
}

TEST(VmaTree, SplitMakesTwoAdjacentVmas)
{
    VmaTree tree;
    tree.create(0x10000, 0x10000, VmaKind::Heap);
    tree.split(0x10000, 0x14000);
    EXPECT_EQ(tree.count(), 2u);
    EXPECT_EQ(tree.findByBase(0x10000)->size, 0x4000u);
    EXPECT_EQ(tree.findByBase(0x14000)->size, 0xc000u);
}

TEST(VmaTree, FindFreeRangeSkipsExistingVmas)
{
    VmaTree tree;
    tree.create(0x10000, 0x4000, VmaKind::Heap);
    tree.create(0x20000, 0x4000, VmaKind::Heap);
    const Addr at = tree.findFreeRange(0x10000, 0x2000);
    EXPECT_EQ(at, 0x14000u);
    // 0xb000 still fits in the 0xc000 gap between the two VMAs.
    EXPECT_EQ(tree.findFreeRange(0x10000, 0xb000), 0x14000u);
    // 0xd000 does not: the search continues past the second VMA.
    EXPECT_EQ(tree.findFreeRange(0x10000, 0xd000), 0x24000u);
}

struct SpaceFixture : public ::testing::Test
{
    SpaceFixture()
        : mem(Addr{1} << 31), alloc((Addr{1} << 31) >> pageShift)
    {
    }

    PhysicalMemory mem;
    BuddyAllocator alloc;
};

TEST_F(SpaceFixture, PopulateMapsEveryPage)
{
    AddressSpace proc(mem, alloc, {});
    const Vma &vma = proc.mmapAt(0x100000, 64 * pageSize,
                                 VmaKind::Heap);
    for (Addr va = vma.base; va < vma.end(); va += pageSize)
        EXPECT_TRUE(proc.pageTable().translate(va).has_value());
    EXPECT_EQ(proc.dataFrames(), 64u);
}

TEST_F(SpaceFixture, MunmapFreesFrames)
{
    AddressSpace proc(mem, alloc, {});
    const auto freeBefore = alloc.freeFrames();
    proc.mmapAt(0x100000, 64 * pageSize, VmaKind::Heap);
    proc.munmap(0x100000);
    EXPECT_EQ(alloc.freeFrames(), freeBefore);
    EXPECT_EQ(proc.dataFrames(), 0u);
    alloc.checkConsistency();
}

TEST_F(SpaceFixture, ThpUsesHugePagesWhereAligned)
{
    AddressSpaceConfig cfg;
    cfg.thp = ThpMode::Always;
    AddressSpace proc(mem, alloc, cfg);
    // 4 MB VMA aligned to 2 MB: two huge mappings.
    proc.mmapAt(0x40000000, 2 * hugePageSize, VmaKind::Heap);
    EXPECT_EQ(proc.hugeMappings(), 2u);
    const auto tr = proc.pageTable().translate(0x40000000 + 12345);
    ASSERT_TRUE(tr.has_value());
    EXPECT_EQ(tr->size, PageSize::Size2M);
    // Unaligned VMA edges fall back to 4 KB pages.
    proc.mmapAt(0x50001000, hugePageSize + 2 * pageSize,
                VmaKind::Heap);
    const auto edge = proc.pageTable().translate(0x50001000);
    ASSERT_TRUE(edge.has_value());
    EXPECT_EQ(edge->size, PageSize::Size4K);
}

TEST_F(SpaceFixture, GrowPopulatesExtension)
{
    AddressSpace proc(mem, alloc, {});
    proc.mmapAt(0x100000, 16 * pageSize, VmaKind::Heap);
    proc.growVma(0x100000, 32 * pageSize);
    EXPECT_TRUE(proc.pageTable()
                    .translate(0x100000 + 31 * pageSize)
                    .has_value());
    EXPECT_EQ(proc.dataFrames(), 32u);
}

TEST_F(SpaceFixture, ReplaceBackingSplicesNewFrame)
{
    AddressSpace proc(mem, alloc, {});
    proc.mmapAt(0x100000, 4 * pageSize, VmaKind::Heap);
    const auto mine = alloc.allocPages(0, FrameKind::PageTable);
    ASSERT_TRUE(mine.has_value());
    proc.replaceBacking(0x101000, *mine);
    EXPECT_EQ(proc.pageTable().translate(0x101000)->pfn, *mine);
    // munmap must not free the caller-owned frame.
    proc.munmap(0x100000);
    EXPECT_EQ(alloc.kindOf(*mine), FrameKind::PageTable);
    alloc.freePages(*mine, 0);
}

TEST_F(SpaceFixture, ReplaceBackingDemotesHugePage)
{
    AddressSpaceConfig cfg;
    cfg.thp = ThpMode::Always;
    AddressSpace proc(mem, alloc, cfg);
    proc.mmapAt(0x40000000, hugePageSize, VmaKind::Heap);
    EXPECT_EQ(proc.hugeMappings(), 1u);
    const auto mine = alloc.allocPages(0, FrameKind::PageTable);
    proc.replaceBacking(0x40000000 + 5 * pageSize, *mine);
    EXPECT_EQ(proc.hugeMappings(), 0u);
    const auto tr = proc.pageTable().translate(0x40000000);
    EXPECT_EQ(tr->size, PageSize::Size4K);
    const auto spliced =
        proc.pageTable().translate(0x40000000 + 5 * pageSize);
    EXPECT_EQ(spliced->pfn, *mine);
    proc.munmap(0x40000000);
    alloc.freePages(*mine, 0);
    alloc.checkConsistency();
}

TEST_F(SpaceFixture, CompactionHookKeepsTranslationsCorrect)
{
    AddressSpace proc(mem, alloc, {});
    alloc.setRelocationHook([&](Pfn from, Pfn to) {
        proc.onFrameRelocated(from, to);
    });
    proc.mmapAt(0x100000, 64 * pageSize, VmaKind::Heap);
    // Punch holes so compaction has something to do.
    std::vector<std::pair<Addr, Pfn>> expect;
    for (int i = 0; i < 64; ++i) {
        const Addr va = 0x100000 + Addr(i) * pageSize;
        mem.write64(proc.pageTable().translate(va)->pa, 1000 + i);
    }
    alloc.compact();
    for (int i = 0; i < 64; ++i) {
        const Addr va = 0x100000 + Addr(i) * pageSize;
        const auto tr = proc.pageTable().translate(va);
        ASSERT_TRUE(tr.has_value());
        // Content must still be reachable through the translation.
        EXPECT_EQ(mem.read64(tr->pa), Addr(1000 + i));
    }
}

/**
 * AddressSpace's pfn-indexed reverse map against a std::map model
 * (base pfn -> page va and size) through THP and 4 KB mappings, a
 * 2 MB demote by replaceBacking, frame relocations, munmap and the
 * destructor, which must free every owned frame once, as one block of
 * its page size, in ascending frame order. Frees are observed through
 * interval-1 audit sweeps, so the test needs the audit layer.
 */
TEST(AddressSpaceReverseMap, MatchesMapModelThroughTeardown)
{
#ifndef DMT_ENABLE_AUDIT
    GTEST_SKIP() << "frees are observed through audit sweeps";
#else
    constexpr Pfn frames = Pfn{1} << 13;
    PhysicalMemory mem(frames << pageShift);
    InvariantAuditor auditor;  // outlives the allocator's hook
    BuddyAllocator alloc(frames);
    alloc.attachAuditor(auditor);

    std::map<Pfn, std::pair<Addr, PageSize>> model;
    std::vector<Pfn> spliced;
    std::vector<bool> wasFree(frames);
    std::vector<bool> wasMovable(frames);
    std::vector<std::pair<Pfn, std::uint64_t>> freed;  // per free call
    int hook = 0;
    {
        AddressSpaceConfig cfg;
        cfg.thp = ThpMode::Always;
        AddressSpace proc(mem, alloc, cfg);
        const Addr hugeVa = 0x40000000;
        const Addr smallVa = 0x80001000;  // unaligned: 4 KB pages
        const Addr stackVa = 0x90000000;
        proc.mmapAt(hugeVa, 2 * hugePageSize, VmaKind::Heap);
        proc.mmapAt(smallVa, 48 * pageSize, VmaKind::Heap);
        proc.mmapAt(stackVa, 16 * pageSize, VmaKind::Stack);
        ASSERT_EQ(proc.hugeMappings(), 2u);
        for (const auto &[base, size] :
             {std::pair{hugeVa, 2 * hugePageSize},
              std::pair{smallVa, 48 * pageSize},
              std::pair{stackVa, 16 * pageSize}}) {
            for (Addr va = base; va < base + size;) {
                const auto tr = proc.pageTable().translate(va);
                ASSERT_TRUE(tr.has_value());
                model[tr->pfn] = {va, tr->size};
                va += pageBytesOf(tr->size);
            }
        }

        // Splicing a caller-owned frame into page 5 of a huge page
        // demotes it; the space keeps owning the other 511 frames.
        auto splice = [&](Addr va) {
            const auto mine = alloc.allocPages(0, FrameKind::PageTable);
            ASSERT_TRUE(mine.has_value());
            proc.replaceBacking(va, *mine);
            EXPECT_EQ(proc.pageTable().translate(va)->pfn, *mine);
            spliced.push_back(*mine);
        };
        const Pfn hugeBase = proc.pageTable().translate(hugeVa)->pfn;
        splice(hugeVa + 5 * pageSize);
        model.erase(hugeBase);
        for (Pfn i = 0; i < 512; ++i) {
            if (i != 5)
                model[hugeBase + i] = {hugeVa + i * pageSize,
                                       PageSize::Size4K};
        }
        EXPECT_EQ(proc.hugeMappings(), 1u);
        EXPECT_TRUE(alloc.isFree(hugeBase + 5));
        const Pfn smallPfn =
            proc.pageTable().translate(smallVa + 3 * pageSize)->pfn;
        splice(smallVa + 3 * pageSize);
        model.erase(smallPfn);
        EXPECT_TRUE(alloc.isFree(smallPfn));

        // Relocate frames the way compaction does: claim a target,
        // fix the mapping up through the hook, free the source.
        auto relocate = [&](Pfn from) {
            const auto to = alloc.allocPages(0, FrameKind::Movable);
            ASSERT_TRUE(to.has_value());
            mem.write64(from << pageShift, from + 1);
            proc.onFrameRelocated(from, *to);
            alloc.freePages(from, 0);
            const auto page = model.at(from);
            model.erase(from);
            model[*to] = page;
            EXPECT_EQ(proc.pageTable().translate(page.first)->pfn, *to);
            EXPECT_EQ(mem.read64(*to << pageShift), from + 1);
        };
        relocate(hugeBase + 7);
        relocate(hugeBase + 300);
        relocate(proc.pageTable().translate(smallVa)->pfn);
        relocate(proc.pageTable().translate(smallVa + 40 * pageSize)->pfn);
        // A frame the space does not own is left alone.
        proc.onFrameRelocated(spliced.front(), spliced.back());
        EXPECT_EQ(proc.pageTable().translate(hugeVa + 5 * pageSize)->pfn,
                  spliced.front());

        // munmap releases exactly the VMA's frames.
        proc.munmap(stackVa);
        for (auto it = model.begin(); it != model.end();) {
            if (it->second.first >= stackVa) {
                EXPECT_TRUE(alloc.isFree(it->first));
                it = model.erase(it);
            } else {
                ++it;
            }
        }
        EXPECT_EQ(proc.dataFrames(), 512u + 511u + 47u);

        for (Pfn p = 0; p < frames; ++p) {
            wasFree[p] = alloc.isFree(p);
            wasMovable[p] = alloc.kindOf(p) == FrameKind::Movable;
        }
        hook = auditor.registerHook("teardown", [&](AuditSink &) {
            std::uint64_t n = 0;
            for (Pfn p = 0; p < frames; ++p) {
                if (wasFree[p] || !alloc.isFree(p))
                    continue;
                wasFree[p] = true;
                if (!wasMovable[p])
                    continue;  // a page-table frame
                if (n++ == 0)
                    freed.emplace_back(p, 0);
            }
            if (n != 0)
                freed.back().second = n;
        });
        auditor.setInterval(1);
    }
    auditor.setInterval(0);
    auditor.unregisterHook(hook);
    EXPECT_TRUE(auditor.violations().empty());

    std::vector<std::pair<Pfn, std::uint64_t>> want;
    for (const auto &[pfn, page] : model)
        want.emplace_back(pfn, page.second == PageSize::Size2M ? 512 : 1);
    EXPECT_EQ(freed, want);
    for (const Pfn pfn : spliced) {
        EXPECT_EQ(alloc.kindOf(pfn), FrameKind::PageTable);
        alloc.freePages(pfn, 0);
    }
    EXPECT_EQ(alloc.freeFrames(), frames);
    alloc.checkConsistency();
#endif
}

} // namespace
} // namespace dmt
