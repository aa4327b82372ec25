/**
 * @file
 * Unit tests for the virtualization stack: the VM container and
 * guest-physical views, the 2-D nested walker's reference counts
 * (Figure 2), shadow paging, and the nested (L2/L1/L0) stack.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "mem/memory_hierarchy.hh"
#include "mem/physical_memory.hh"
#include "virt/nested_stack.hh"
#include "virt/nested_walker.hh"
#include "virt/shadow_pager.hh"
#include "core/hypercall.hh"
#include "virt/virtual_machine.hh"

namespace dmt
{
namespace
{

struct VirtFixture : public ::testing::Test
{
    VirtFixture()
        : hostMem(Addr{2} << 30),
          hostAlloc((Addr{2} << 30) >> pageShift)
    {
        VmConfig cfg;
        cfg.vmBytes = Addr{512} << 20;
        vm = std::make_unique<VirtualMachine>(hostMem, hostAlloc,
                                              cfg);
    }

    PhysicalMemory hostMem;
    BuddyAllocator hostAlloc;
    std::unique_ptr<VirtualMachine> vm;
};

TEST_F(VirtFixture, GuestPhysicalMemoryIsFullyBacked)
{
    for (Addr gpa = 0; gpa < vm->config().vmBytes;
         gpa += 64 * 1024 * 1024) {
        EXPECT_NO_FATAL_FAILURE(vm->gpaToHostPa(gpa));
    }
}

TEST_F(VirtFixture, GuestViewReadsThroughTranslation)
{
    const Addr gpa = 0x123450;
    vm->guestMem().write64(gpa, 0xfeedull);
    EXPECT_EQ(vm->guestMem().read64(gpa), 0xfeedull);
    // The same word is visible at the resolved host address.
    EXPECT_EQ(hostMem.read64(vm->gpaToHostPa(gpa)), 0xfeedull);
}

TEST_F(VirtFixture, GuestProcessComposesThroughBothTables)
{
    auto &guest = vm->guestSpace();
    guest.mmapAt(0x10000000, 32 * pageSize, VmaKind::Heap);
    const auto gtr = guest.pageTable().translate(0x10003123);
    ASSERT_TRUE(gtr.has_value());
    const Addr hpa = vm->gpaToHostPa(gtr->pa);
    EXPECT_LT(hpa, hostMem.size());
}

TEST_F(VirtFixture, NestedWalkerTakesUpTo24Refs)
{
    auto &guest = vm->guestSpace();
    guest.mmapAt(0x10000000, 256 * pageSize, VmaKind::Heap);
    MemoryHierarchy caches;
    // A PWC too small to help: force full-depth walks.
    PwcConfig pwc;
    pwc.entriesForL3Table = 1;
    pwc.entriesForL2Table = 1;
    pwc.entriesForL1Table = 1;
    NestedWalker walker(
        guest.pageTable(), vm->containerSpace().pageTable(),
        NestedWalker::GpaToHostVa{vm->gpaToHva(0)}, caches, pwc);
    walker.flush();
    // A cold walk takes many references (up to 24); the nested PWC
    // fills mid-walk, so adjacent guest-table pages shorten later
    // host walks even within the first translation.
    const WalkRecord rec = walker.walk(0x10000000);
    EXPECT_GE(rec.seqRefs, 9);
    EXPECT_LE(rec.seqRefs, 24);
    EXPECT_EQ(rec.pa, walker.resolve(0x10000000));
    // Warm PWCs shorten the next, nearby walk further.
    const WalkRecord rec2 = walker.walk(0x10000000 + pageSize);
    EXPECT_LT(rec2.seqRefs, rec.seqRefs);
}

TEST_F(VirtFixture, NestedWalkerSlotBreakdownCoversFigure2)
{
    auto &guest = vm->guestSpace();
    guest.mmapAt(0x10000000, 4 * pageSize, VmaKind::Heap);
    MemoryHierarchy caches;
    PwcConfig pwc;
    pwc.entriesForL3Table = 1;
    pwc.entriesForL2Table = 1;
    pwc.entriesForL1Table = 1;
    NestedWalker walker(
        guest.pageTable(), vm->containerSpace().pageTable(),
        NestedWalker::GpaToHostVa{vm->gpaToHva(0)}, caches, pwc);
    walker.recordSteps(true);
    walker.flush();
    const WalkRecord rec = walker.walk(0x10000000);
    // Slots map into Figure 2's 1..24 grid, strictly increasing,
    // ending at the final hL1 (24), with every guest slot present.
    ASSERT_GE(rec.steps.size(), 9u);
    for (std::size_t i = 1; i < rec.steps.size(); ++i)
        EXPECT_LT(rec.steps[i - 1].slot, rec.steps[i].slot);
    EXPECT_EQ(rec.steps.back().slot, 24);
    EXPECT_EQ(rec.steps.back().dim, 'h');
    std::set<int> slots;
    for (const auto &step : rec.steps)
        slots.insert(step.slot);
    for (int gslot : {5, 10, 15, 20}) {
        EXPECT_TRUE(slots.count(gslot))
            << "guest slot " << gslot << " missing";
    }
}

TEST_F(VirtFixture, ShadowPagerMirrorsGuestMappings)
{
    auto &guest = vm->guestSpace();
    guest.mmapAt(0x10000000, 64 * pageSize, VmaKind::Heap);
    ShadowPager shadow(hostMem, hostAlloc, guest, [&](Addr gpa) {
        return vm->gpaToHostPa(gpa);
    });
    shadow.syncAll();
    EXPECT_GE(shadow.exits(), 64u);
    for (Addr va = 0x10000000; va < 0x10000000 + 64 * pageSize;
         va += pageSize) {
        const auto str = shadow.table().translate(va);
        ASSERT_TRUE(str.has_value());
        const auto gtr = guest.pageTable().translate(va);
        EXPECT_EQ(str->pa, vm->gpaToHostPa(gtr->pa));
    }
}

TEST_F(VirtFixture, ShadowPagerSyncsIncrementalUpdates)
{
    auto &guest = vm->guestSpace();
    guest.mmapAt(0x10000000, 4 * pageSize, VmaKind::Heap);
    ShadowPager shadow(hostMem, hostAlloc, guest, [&](Addr gpa) {
        return vm->gpaToHostPa(gpa);
    });
    shadow.syncAll();
    const auto exits = shadow.exits();
    guest.mmapAt(0x20000000, pageSize, VmaKind::Data);
    shadow.syncPage(0x20000000);
    EXPECT_EQ(shadow.exits(), exits + 1);
    EXPECT_TRUE(shadow.table().translate(0x20000000).has_value());
}

TEST(NestedStackTest, ThreeLayerTranslationComposes)
{
    PhysicalMemory l0Mem(Addr{3} << 30);
    BuddyAllocator l0Alloc((Addr{3} << 30) >> pageShift);
    NestedConfig cfg;
    cfg.l1Bytes = Addr{1} << 30;
    cfg.l2Bytes = Addr{256} << 20;
    NestedStack stack(l0Mem, l0Alloc, cfg);

    auto &l2 = stack.l2Space();
    l2.mmapAt(0x10000000, 64 * pageSize, VmaKind::Heap);
    const auto tr = l2.pageTable().translate(0x10001000);
    ASSERT_TRUE(tr.has_value());
    // L2PA -> L1PA -> L0PA chain stays in range at every level.
    const Addr l1pa = stack.l2paToL1pa(tr->pa);
    EXPECT_LT(l1pa, cfg.l1Bytes);
    const Addr l0pa = stack.l2paToL0pa(tr->pa);
    EXPECT_LT(l0pa, l0Mem.size());
    // Writes through the L2 view land at the composed L0 address.
    stack.l2Mem().write64(tr->pa, 0xabcdull);
    EXPECT_EQ(l0Mem.read64(l0pa), 0xabcdull);
}

TEST(NestedStackTest, L2ShadowPagerMapsL2paToL0pa)
{
    PhysicalMemory l0Mem(Addr{3} << 30);
    BuddyAllocator l0Alloc((Addr{3} << 30) >> pageShift);
    NestedConfig cfg;
    cfg.l1Bytes = Addr{1} << 30;
    cfg.l2Bytes = Addr{256} << 20;
    NestedStack stack(l0Mem, l0Alloc, cfg);
    auto shadow = stack.makeL2ShadowPager(l0Mem, l0Alloc);
    // Every backed L2PA resolves identically via the sPT and the
    // functional chain.
    for (Addr l2pa = 0; l2pa < cfg.l2Bytes; l2pa += 32 << 20) {
        const auto str =
            shadow->table().translate(stack.l2paToL1va(l2pa));
        ASSERT_TRUE(str.has_value());
        EXPECT_EQ(str->pa, stack.l2paToL0pa(l2pa));
    }
}

TEST(NestedHypercallTest, CascadedGrantIsL0Contiguous)
{
    PhysicalMemory l0Mem(Addr{3} << 30);
    BuddyAllocator l0Alloc((Addr{3} << 30) >> pageShift);
    NestedConfig cfg;
    cfg.l1Bytes = Addr{1} << 30;
    cfg.l2Bytes = Addr{256} << 20;
    NestedStack stack(l0Mem, l0Alloc, cfg);
    GteaTable table;
    NestedTeaHypercall hypercall(stack, l0Alloc, table);
    const auto grant = hypercall.allocTea(8);
    ASSERT_TRUE(grant.has_value());
    for (std::uint64_t i = 0; i < 8; ++i) {
        const Addr l2pa = (grant->gpaBasePfn + i) << pageShift;
        EXPECT_EQ(stack.l2paToL0pa(l2pa),
                  (grant->hostBasePfn + i) << pageShift);
    }
}

/**
 * One guest-physical memory view over its own small host memory, so
 * every backing word can be compared after each range operation.
 */
struct ViewRig
{
    virtual ~ViewRig() = default;
    virtual PhysicalMemory &host() = 0;
    virtual Memory &view() = 0;
    virtual BuddyAllocator &viewAllocator() = 0;
};

/**
 * Take `frames` host frames, pin the odd ones and fill them with
 * nonzero words, and free the rest as isolated holes. Consecutive
 * guest pages then land on scattered host frames with data in
 * between: a range op that runs past a page in host space changes a
 * word the word loop leaves alone.
 */
void
scatterHostFrames(PhysicalMemory &mem, BuddyAllocator &alloc, Pfn frames)
{
    std::vector<Pfn> holes;
    for (Pfn i = 0; i < frames; ++i) {
        const auto pfn = alloc.allocPages(0, FrameKind::Unmovable);
        ASSERT_TRUE(pfn.has_value());
        if (*pfn % 2 == 0) {
            holes.push_back(*pfn);
            continue;
        }
        for (Addr off = 0; off < pageSize; off += 8)
            mem.write64((*pfn << pageShift) + off, 0x5e00000000ull | off);
    }
    for (const Pfn pfn : holes)
        alloc.freePages(pfn, 0);
}

struct VmRig : ViewRig
{
    explicit VmRig(ThpMode ept)
        : hostMem(Addr{64} << 20), hostAlloc((Addr{64} << 20) >> pageShift)
    {
        // 2 MB EPT mappings need contiguous host memory.
        if (ept == ThpMode::Never)
            scatterHostFrames(hostMem, hostAlloc,
                              (Addr{32} << 20) >> pageShift);
        VmConfig cfg;
        cfg.vmBytes = Addr{16} << 20;
        cfg.hostThp = ept;
        vm = std::make_unique<VirtualMachine>(hostMem, hostAlloc, cfg);
    }
    PhysicalMemory &host() override { return hostMem; }
    Memory &view() override { return vm->guestMem(); }
    BuddyAllocator &viewAllocator() override
    {
        return vm->guestAllocator();
    }

    PhysicalMemory hostMem;
    BuddyAllocator hostAlloc;
    std::unique_ptr<VirtualMachine> vm;
};

struct NestedRig : ViewRig
{
    NestedRig()
        : l0Mem(Addr{192} << 20), l0Alloc((Addr{192} << 20) >> pageShift)
    {
        scatterHostFrames(l0Mem, l0Alloc,
                          (Addr{128} << 20) >> pageShift);
        NestedConfig cfg;
        cfg.l1Bytes = Addr{64} << 20;
        cfg.l2Bytes = Addr{16} << 20;
        stack = std::make_unique<NestedStack>(l0Mem, l0Alloc, cfg);
    }
    PhysicalMemory &host() override { return l0Mem; }
    Memory &view() override { return stack->l2Mem(); }
    BuddyAllocator &viewAllocator() override
    {
        return stack->l2Allocator();
    }

    PhysicalMemory l0Mem;
    BuddyAllocator l0Alloc;
    std::unique_ptr<NestedStack> stack;
};

/** Every word of two host memories, plus their accounting. */
void
expectSameBacking(const PhysicalMemory &ranged,
                  const PhysicalMemory &wordwise, const char *op)
{
    SCOPED_TRACE(op);
    ASSERT_EQ(ranged.size(), wordwise.size());
    const auto a = ranged.readWindow();
    const auto b = wordwise.readWindow();
    const std::size_t words = static_cast<std::size_t>(a.bytes >> 3);
    if (std::memcmp(a.words, b.words, words * 8) != 0) {
        for (std::size_t w = 0; w < words; ++w) {
            ASSERT_EQ(a.words[w], b.words[w])
                << "host word at 0x" << std::hex << (w * 8);
        }
    }
    EXPECT_EQ(ranged.wordsInUse(), wordwise.wordsInUse());
    // Whole-frame range ops drop frames; the word loop never does.
    EXPECT_LE(ranged.framesInUse(), wordwise.framesInUse());
}

/**
 * Drive the view's page-granular range ops on one rig and Memory's
 * word loop (the base-class bodies, called non-virtually) on an
 * identical rig, and compare the backing memories after every op.
 */
void
checkRangeOpsMatchWordLoop(const std::function<std::unique_ptr<ViewRig>()>
                               &make)
{
    auto ranged = make();
    auto wordwise = make();
    constexpr std::uint64_t pages = 32;
    const auto pfnA =
        ranged->viewAllocator().allocContig(pages, FrameKind::Movable);
    const auto pfnB =
        wordwise->viewAllocator().allocContig(pages, FrameKind::Movable);
    ASSERT_TRUE(pfnA.has_value());
    ASSERT_EQ(pfnA, pfnB);
    const Addr base = *pfnA << pageShift;

    // Seeded content in pages 0-19, with a quarter of the words zero;
    // pages 20-31 are never written.
    Rng rng(0x5eed);
    for (Addr off = 0; off < 20 * pageSize; off += 8) {
        const std::uint64_t v = rng.below(4) == 0 ? 0 : rng.next() | 1;
        ranged->view().write64(base + off, v);
        wordwise->view().write64(base + off, v);
    }
    expectSameBacking(ranged->host(), wordwise->host(), "fill");

    struct Op
    {
        const char *name;
        bool copy;
        Addr dst, src, bytes;  // src unused for zeroRange
    };
    const Op ops[] = {
        {"zero sub-page", false, 0x1008, 0, 0x100},
        {"zero page-straddling", false, 2 * pageSize - 0x40, 0, 0x80},
        {"zero whole pages", false, 4 * pageSize, 0, 3 * pageSize},
        {"zero multi-page misaligned", false, 8 * pageSize + 0x18, 0,
         2 * pageSize + 0x30},
        {"copy sub-page", true, 12 * pageSize + 0x20,
         1 * pageSize + 0x100, 0x200},
        {"copy misaligned src/dst offsets", true, 13 * pageSize + 0xf00,
         2 * pageSize + 0x80, 0x1800},
        {"copy whole pages", true, 16 * pageSize, 0, 4 * pageSize},
        {"copy multi-page misaligned", true, 5 * pageSize + 0x208,
         10 * pageSize + 0xe38, 3 * pageSize + 0x1f0},
        {"copy from zero source", true, 16 * pageSize + 0x10,
         22 * pageSize + 0x7f8, 2 * pageSize},
        {"copy whole pages from zero source", true, 18 * pageSize,
         24 * pageSize, 2 * pageSize},
        {"copy into never-written pages", true, 26 * pageSize + 0x40,
         13 * pageSize + 0x10, 2 * pageSize},
    };
    for (const Op &op : ops) {
        Memory &a = ranged->view();
        Memory &b = wordwise->view();
        if (op.copy) {
            a.copyRange(base + op.dst, base + op.src, op.bytes);
            b.Memory::copyRange(base + op.dst, base + op.src, op.bytes);
        } else {
            a.zeroRange(base + op.dst, op.bytes);
            b.Memory::zeroRange(base + op.dst, op.bytes);
        }
        expectSameBacking(ranged->host(), wordwise->host(), op.name);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The whole-page zeroing dropped frames, so the override (not the
    // word loop) really ran on the ranged rig.
    EXPECT_LT(ranged->host().framesInUse(),
              wordwise->host().framesInUse());
}

TEST(GuestViewRangeOps, OneLevelViewMatchesWordLoop)
{
    checkRangeOpsMatchWordLoop(
        [] { return std::make_unique<VmRig>(ThpMode::Never); });
}

TEST(GuestViewRangeOps, OneLevelViewOverHugeEptMatchesWordLoop)
{
    checkRangeOpsMatchWordLoop(
        [] { return std::make_unique<VmRig>(ThpMode::Always); });
}

TEST(GuestViewRangeOps, TwoLevelNestedViewMatchesWordLoop)
{
    checkRangeOpsMatchWordLoop(
        [] { return std::make_unique<NestedRig>(); });
}

} // namespace
} // namespace dmt
