/**
 * @file
 * Unit tests for the virtualization stack: the VM container and
 * guest-physical views, the 2-D nested walker's reference counts
 * (Figure 2), shadow paging, and the nested (L2/L1/L0) stack.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
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

    /** Bytes of the view's physical space. */
    virtual Addr viewBytes() = 0;

    /**
     * Host address of view address pa by walking every container
     * page table; nullopt where a layer does not back it.
     */
    virtual std::optional<Addr> walk(Addr pa) = 0;

    /**
     * Every frame-map translation of pa (each layer, and composed)
     * equals the container walks; an unbacked page has an unbacked
     * map entry.
     */
    virtual void expectMapsMatchWalks(Addr pa) = 0;

    /** One request to the rig's pvDMT TEA hypercall. */
    virtual std::optional<TeaGrant> allocTea(std::uint64_t pages) = 0;

    /**
     * pvDMT splices through the hypercall: two runs, and a zero-page
     * request that must be refused.
     */
    void
    splice()
    {
        for (const std::uint64_t pages : {16, 5}) {
            const auto grant = allocTea(pages);
            ASSERT_TRUE(grant.has_value());
            grants.emplace_back(grant->gpaBasePfn, pages);
        }
        EXPECT_FALSE(allocTea(0).has_value());
    }

    /** Compact every allocator that backs a container's data. */
    virtual void compact() = 0;

    /** The container process backing the view. */
    virtual AddressSpace &container() = 0;

    /** Host VA of view address 0 in container(). */
    virtual Addr containerBase() = 0;

    /** Is gfn free guest memory or part of a TEA grant? */
    bool
    usable(Pfn gfn)
    {
        for (const auto &[base, pages] : grants) {
            if (gfn >= base && gfn < base + pages)
                return true;
        }
        return viewAllocator().isFree(gfn);
    }

    /** gPA runs spliced in by splice(): (first gfn, pages). */
    std::vector<std::pair<Pfn, std::uint64_t>> grants;
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

/** A page-table walk of `pt` at va, as a physical address. */
std::optional<Addr>
walkPa(const RadixPageTable &pt, Addr va)
{
    const auto tr = pt.translate(va);
    if (!tr)
        return std::nullopt;
    return tr->pa;
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
        hypercall =
            std::make_unique<TeaHypercall>(*vm, hostAlloc, gteaTable);
    }
    PhysicalMemory &host() override { return hostMem; }
    Memory &view() override { return vm->guestMem(); }
    BuddyAllocator &viewAllocator() override
    {
        return vm->guestAllocator();
    }
    Addr viewBytes() override { return vm->config().vmBytes; }
    AddressSpace &container() override { return vm->containerSpace(); }
    Addr containerBase() override { return vm->gpaToHva(0); }

    std::optional<Addr>
    walk(Addr gpa) override
    {
        return walkPa(vm->containerSpace().pageTable(),
                      vm->gpaToHva(gpa));
    }

    void
    expectMapsMatchWalks(Addr gpa) override
    {
        const auto hpa = walk(gpa);
        if (!hpa) {
            EXPECT_EQ(vm->frameMap().entry(gpa), FrameMap::unbacked)
                << "gpa 0x" << std::hex << gpa;
            return;
        }
        EXPECT_EQ(vm->gpaToHostPa(gpa), *hpa)
            << "gpa 0x" << std::hex << gpa;
    }

    std::optional<TeaGrant>
    allocTea(std::uint64_t pages) override
    {
        return hypercall->allocTea(pages);
    }

    void
    compact() override
    {
        hostAlloc.setRelocationHook([this](Pfn from, Pfn to) {
            vm->containerSpace().onFrameRelocated(from, to);
        });
        EXPECT_GT(hostAlloc.compact(256), 0u);
    }

    PhysicalMemory hostMem;
    BuddyAllocator hostAlloc;
    std::unique_ptr<VirtualMachine> vm;
    GteaTable gteaTable;
    std::unique_ptr<TeaHypercall> hypercall;
};

struct NestedRig : ViewRig
{
    explicit NestedRig(ThpMode thp = ThpMode::Never)
        : l0Mem(Addr{192} << 20), l0Alloc((Addr{192} << 20) >> pageShift)
    {
        // 2 MB container mappings need contiguous memory.
        if (thp == ThpMode::Never)
            scatterHostFrames(l0Mem, l0Alloc,
                              (Addr{128} << 20) >> pageShift);
        NestedConfig cfg;
        cfg.l1Bytes = Addr{64} << 20;
        cfg.l2Bytes = Addr{16} << 20;
        cfg.l0Thp = thp;
        cfg.l1Thp = thp;
        stack = std::make_unique<NestedStack>(l0Mem, l0Alloc, cfg);
        hypercall = std::make_unique<NestedTeaHypercall>(
            *stack, l0Alloc, gteaTable);
    }
    PhysicalMemory &host() override { return l0Mem; }
    Memory &view() override { return stack->l2Mem(); }
    BuddyAllocator &viewAllocator() override
    {
        return stack->l2Allocator();
    }
    Addr viewBytes() override { return stack->config().l2Bytes; }
    AddressSpace &container() override { return stack->l1Container(); }
    Addr containerBase() override { return stack->l2paToL1va(0); }

    std::optional<Addr>
    walkL1(Addr l2pa)
    {
        return walkPa(stack->l1Container().pageTable(),
                      stack->l2paToL1va(l2pa));
    }

    std::optional<Addr>
    walk(Addr l2pa) override
    {
        const auto l1pa = walkL1(l2pa);
        if (!l1pa)
            return std::nullopt;
        return walkPa(stack->vm1().containerSpace().pageTable(),
                      stack->vm1().gpaToHva(*l1pa));
    }

    void
    expectMapsMatchWalks(Addr l2pa) override
    {
        const auto l1pa = walkL1(l2pa);
        if (!l1pa) {
            EXPECT_EQ(stack->l2FrameMap().entry(l2pa),
                      FrameMap::unbacked)
                << "l2pa 0x" << std::hex << l2pa;
            return;
        }
        EXPECT_EQ(stack->l2paToL1pa(l2pa), *l1pa)
            << "l2pa 0x" << std::hex << l2pa;
        const auto l0pa = walk(l2pa);
        ASSERT_TRUE(l0pa.has_value());
        EXPECT_EQ(stack->l1paToL0pa(*l1pa), *l0pa);
        EXPECT_EQ(stack->l2paToL0pa(l2pa), *l0pa)
            << "l2pa 0x" << std::hex << l2pa;
    }

    std::optional<TeaGrant>
    allocTea(std::uint64_t pages) override
    {
        return hypercall->allocTea(pages);
    }

    void
    compact() override
    {
        l0Alloc.setRelocationHook([this](Pfn from, Pfn to) {
            stack->vm1().containerSpace().onFrameRelocated(from, to);
        });
        stack->vm1().guestAllocator().setRelocationHook(
            [this](Pfn from, Pfn to) {
                stack->l1Container().onFrameRelocated(from, to);
            });
        EXPECT_GT(l0Alloc.compact(256), 0u);
        EXPECT_GT(stack->vm1().guestAllocator().compact(256), 0u);
    }

    PhysicalMemory l0Mem;
    BuddyAllocator l0Alloc;
    std::unique_ptr<NestedStack> stack;
    GteaTable gteaTable;
    std::unique_ptr<NestedTeaHypercall> hypercall;
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

/**
 * The frame maps against the container walks at one seeded address
 * in every page of the view.
 */
void
expectFrameMapsMatchWalks(ViewRig &rig, std::uint64_t seed,
                          const char *when)
{
    SCOPED_TRACE(when);
    Rng rng(seed);
    for (Addr page = 0; page < rig.viewBytes(); page += pageSize) {
        rig.expectMapsMatchWalks(page + (rng.below(pageSize / 8) << 3));
        if (::testing::Test::HasFailure())
            return;
    }
}

void
checkFrameMapsFollowSplicesAndCompaction(ViewRig &rig, bool compact)
{
    expectFrameMapsMatchWalks(rig, 1, "populated");
    rig.splice();
    expectFrameMapsMatchWalks(rig, 2, "after pvDMT splices");
    if (compact) {
        rig.compact();
        expectFrameMapsMatchWalks(rig, 3, "after compaction");
    }
}

TEST(FrameMapDifferential, VirtFollowsSplicesAndCompaction)
{
    VmRig rig(ThpMode::Never);
    checkFrameMapsFollowSplicesAndCompaction(rig, true);
}

TEST(FrameMapDifferential, VirtSpliceDemotesHugeEptPage)
{
    VmRig rig(ThpMode::Always);
    const std::uint64_t huge = rig.vm->containerSpace().hugeMappings();
    ASSERT_GT(huge, 0u);
    // Compaction moves 4 KB frames only, so the THP rig skips it.
    checkFrameMapsFollowSplicesAndCompaction(rig, false);
    EXPECT_LT(rig.vm->containerSpace().hugeMappings(), huge);
}

TEST(FrameMapDifferential, NestedFollowsSplicesAndCompaction)
{
    NestedRig rig;
    checkFrameMapsFollowSplicesAndCompaction(rig, true);
}

TEST(FrameMapDifferential, NestedSpliceDemotesHugePagesAtBothLayers)
{
    NestedRig rig(ThpMode::Always);
    auto &l0 = rig.stack->vm1().containerSpace();
    auto &l1 = rig.stack->l1Container();
    const std::uint64_t huge0 = l0.hugeMappings();
    const std::uint64_t huge1 = l1.hugeMappings();
    ASSERT_GT(huge0, 0u);
    ASSERT_GT(huge1, 0u);
    checkFrameMapsFollowSplicesAndCompaction(rig, false);
    EXPECT_LT(l0.hugeMappings(), huge0);
    EXPECT_LT(l1.hugeMappings(), huge1);
}

/**
 * munmap, re-mmap half and growVma over the container's VMA: the map
 * goes unbacked and comes back page by page with the table, and a
 * VMA outside the window leaves it alone.
 */
void
checkFrameMapFollowsMunmapAndGrow(ViewRig &rig)
{
    AddressSpace &container = rig.container();
    const Addr base = rig.containerBase();
    const Addr bytes = rig.viewBytes();
    container.munmap(base);
    expectFrameMapsMatchWalks(rig, 4, "after munmap");
    container.mmapAt(base, bytes / 2, VmaKind::MappedFile);
    expectFrameMapsMatchWalks(rig, 5, "after re-mmap of half");
    EXPECT_FALSE(rig.walk(bytes - pageSize).has_value());
    container.growVma(base, bytes);
    expectFrameMapsMatchWalks(rig, 6, "after growVma");
    container.mmapAt(base + bytes + hugePageSize, hugePageSize,
                     VmaKind::Heap);
    expectFrameMapsMatchWalks(rig, 7, "after a VMA outside the window");
}

TEST(FrameMapDifferential, VirtContainerMunmapAndGrowVma)
{
    for (const ThpMode thp : {ThpMode::Never, ThpMode::Always}) {
        VmRig rig(thp);
        checkFrameMapFollowsMunmapAndGrow(rig);
    }
}

TEST(FrameMapDifferential, NestedContainerMunmapAndGrowVma)
{
    for (const ThpMode thp : {ThpMode::Never, ThpMode::Always}) {
        NestedRig rig(thp);
        checkFrameMapFollowsMunmapAndGrow(rig);
    }
}

/** Test-only guest view that resolves every word by a table walk. */
class WalkedView : public Memory
{
  public:
    WalkedView(Memory &backing, ViewRig &rig)
        : backing_(backing), rig_(rig)
    {
    }

    std::uint64_t
    read64(Addr pa) const override
    {
        return backing_.read64(resolve(pa));
    }

    void
    write64(Addr pa, std::uint64_t value) override
    {
        backing_.write64(resolve(pa), value);
    }

  private:
    Addr
    resolve(Addr pa) const
    {
        const auto hpa = rig_.walk(pa);
        EXPECT_TRUE(hpa.has_value());
        return hpa.value_or(0);
    }

    Memory &backing_;
    ViewRig &rig_;
};

/**
 * After splices (and compaction), seeded read64/write64/copyRange/
 * zeroRange through the frame-mapped view on one rig and through a
 * walking view on an identical rig leave both hosts byte-identical.
 * Ops touch only free guest pages and TEA grants, never the guest's
 * own page tables.
 */
void
checkViewMatchesWalkedView(
    const std::function<std::unique_ptr<ViewRig>()> &make, bool compact)
{
    auto mapped = make();
    auto walked = make();
    for (ViewRig *rig : {mapped.get(), walked.get()}) {
        rig->splice();
        if (compact)
            rig->compact();
    }
    ASSERT_FALSE(::testing::Test::HasFailure());
    expectSameBacking(mapped->host(), walked->host(), "churn");
    WalkedView walkedView(walked->host(), *walked);
    Memory &a = mapped->view();
    Memory &b = walkedView;

    Rng rng(0xf4a3e);
    const Pfn pages = mapped->viewBytes() >> pageShift;
    // A run of `n` consecutive usable guest pages.
    auto pickRun = [&](Pfn n) {
        while (true) {
            const Pfn gfn = rng.below(pages - n + 1);
            bool ok = true;
            for (Pfn i = 0; i < n && ok; ++i)
                ok = mapped->usable(gfn + i);
            if (ok)
                return Addr{gfn} << pageShift;
        }
    };
    auto word = [&](Addr bytes) { return rng.below(bytes / 8) * 8; };
    for (int i = 0; i < 4000; ++i) {
        const Addr pa = pickRun(1) + word(pageSize);
        const std::uint64_t v = rng.below(4) == 0 ? 0 : rng.next();
        a.write64(pa, v);
        b.write64(pa, v);
    }
    for (const auto &[gfn, n] : mapped->grants) {
        for (Addr off = 0; off < n * pageSize; off += 64) {
            const Addr pa = (Addr{gfn} << pageShift) + off;
            a.write64(pa, rng.next() | 1);
            b.write64(pa, a.read64(pa));
        }
    }
    expectSameBacking(mapped->host(), walked->host(), "writes");
    for (int i = 0; i < 400; ++i) {
        const Addr n = 1 + rng.below(3);
        const Addr bytes = 8 + word(n * pageSize - 8);
        const Addr dst = pickRun(n + 1) + word(pageSize);
        if (rng.below(2) == 0) {
            a.zeroRange(dst, bytes);
            b.zeroRange(dst, bytes);
            continue;
        }
        const Addr src = pickRun(n + 1) + word(pageSize);
        if (!(dst + bytes <= src || src + bytes <= dst))
            continue;
        a.copyRange(dst, src, bytes);
        b.copyRange(dst, src, bytes);
    }
    for (int i = 0; i < 2000; ++i) {
        const Addr pa = pickRun(1) + word(pageSize);
        ASSERT_EQ(a.read64(pa), b.read64(pa)) << "gpa 0x" << std::hex
                                              << pa;
    }
    expectSameBacking(mapped->host(), walked->host(), "range ops");
}

TEST(FrameMapDifferential, VirtViewMatchesWalkedView)
{
    checkViewMatchesWalkedView(
        [] { return std::make_unique<VmRig>(ThpMode::Never); }, true);
    checkViewMatchesWalkedView(
        [] { return std::make_unique<VmRig>(ThpMode::Always); }, false);
}

TEST(FrameMapDifferential, NestedViewMatchesWalkedView)
{
    checkViewMatchesWalkedView(
        [] { return std::make_unique<NestedRig>(); }, true);
    checkViewMatchesWalkedView(
        [] { return std::make_unique<NestedRig>(ThpMode::Always); },
        false);
}

} // namespace
} // namespace dmt
