/**
 * @file
 * Tests for the invariant-audit layer (src/check): auditor mechanics
 * (sweeps, intervals, pauses, unregistration), silence on a clean
 * machine, and — the point of the exercise — detection of each
 * deliberately injected corruption: a scribbled TEA-backed table
 * pointer, a buddy double free, a stale TLB entry, and a container
 * leaf rewritten behind a guest frame map's back. Also: a hostile
 * guest's zero-page TEA hypercall leaves the testbed audit-clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "check/invariant_auditor.hh"
#include "core/hypercall.hh"
#include "core/mapping_manager.hh"
#include "core/tea_manager.hh"
#include "mem/physical_memory.hh"
#include "os/address_space.hh"
#include "pt/pte.hh"
#include "sim/testbed.hh"
#include "tlb/tlb.hh"
#include "workloads/workloads.hh"

namespace dmt
{

/**
 * Corruption-injection backdoor (befriended by BuddyAllocator):
 * plants an allocated block on a free list exactly as a double
 * free would, bypassing the allocator's own guards.
 */
class AuditCorruptor
{
  public:
    static void
    injectFreeBlock(BuddyAllocator &alloc, Pfn base, int order)
    {
        alloc.freeLists_[order].insert(base);
    }

    static void
    removeFreeBlock(BuddyAllocator &alloc, Pfn base, int order)
    {
        alloc.freeLists_[order].erase(base);
    }
};

namespace
{

bool
anyFrom(const std::vector<AuditViolation> &violations,
        const std::string &checker)
{
    return std::any_of(violations.begin(), violations.end(),
                       [&](const AuditViolation &v) {
                           return v.checker == checker;
                       });
}

TEST(InvariantAuditor, SweepCollectsNamedViolations)
{
    InvariantAuditor auditor;
    auditor.registerHook("healthy", [](AuditSink &) {});
    auditor.registerHook("broken", [](AuditSink &sink) {
        sink.fail("invariant %d went missing", 7);
    });
    EXPECT_TRUE(auditor.clean());
    EXPECT_EQ(auditor.sweep(), 1u);
    EXPECT_FALSE(auditor.clean());
    ASSERT_EQ(auditor.violations().size(), 1u);
    EXPECT_EQ(auditor.violations()[0].checker, "broken");
    EXPECT_EQ(auditor.violations()[0].detail,
              "invariant 7 went missing");
    EXPECT_EQ(auditor.stats().hooksRun, 2u);
}

TEST(InvariantAuditor, UnregisteredHookStopsRunning)
{
    InvariantAuditor auditor;
    const int id = auditor.registerHook(
        "broken", [](AuditSink &sink) { sink.fail("boom"); });
    EXPECT_EQ(auditor.sweep(), 1u);
    auditor.unregisterHook(id);
    auditor.unregisterHook(id);  // double removal is benign
    EXPECT_EQ(auditor.sweep(), 0u);
    EXPECT_TRUE(auditor.hookNames().empty());
}

TEST(InvariantAuditor, RunHookIsStandalone)
{
    const auto violations = InvariantAuditor::runHook(
        [](AuditSink &sink) { sink.fail("standalone"); });
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].detail, "standalone");
}

TEST(InvariantAuditor, IntervalSweepsTickOnMutationEvents)
{
    InvariantAuditor auditor;
    BuddyAllocator alloc(1024);
    alloc.attachAuditor(auditor, "buddy");
    auditor.setInterval(2);
    const auto a = alloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(auditor.stats().sweeps, 0u);  // one event so far
    const auto b = alloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(auditor.stats().sweeps, 1u);  // second event swept
    {
        InvariantAuditor::Pause pause(&auditor);
        alloc.freePages(*a, 0);
        alloc.freePages(*b, 0);
        EXPECT_EQ(auditor.stats().sweeps, 1u);  // paused
    }
    const auto c = alloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(c.has_value());
    alloc.freePages(*c, 0);
    EXPECT_GT(auditor.stats().sweeps, 1u);  // resumed
    EXPECT_TRUE(auditor.clean());
}

struct AuditFixture : public ::testing::Test
{
    AuditFixture()
        : mem(Addr{1} << 30), alloc((Addr{1} << 30) >> pageShift),
          proc(mem, alloc, {})
    {
    }

    InvariantAuditor auditor;  //!< must outlive the subsystems
    PhysicalMemory mem;
    BuddyAllocator alloc;
    AddressSpace proc;
};

TEST_F(AuditFixture, CleanMachineSweepsSilently)
{
    LocalTeaSource source(alloc);
    TeaManager teas(proc.pageTable(), source);
    alloc.attachAuditor(auditor, "buddy");
    proc.pageTable().attachAuditor(auditor, "radix-pt");
    teas.attachAuditor(auditor, "tea");
    TlbHierarchy tlbs;
    tlbs.attachAuditor(
        auditor,
        [&](Addr va) -> std::optional<PageSize> {
            const auto tr = proc.pageTable().translate(va);
            if (!tr)
                return std::nullopt;
            return tr->size;
        },
        "tlb");

    ASSERT_NE(teas.createTea(0x40000000, 8 * hugePageSize,
                             PageSize::Size4K),
              nullptr);
    // Two VMAs inside the TEA's cover, with a hole between them.
    proc.mmapAt(0x40000000, 4 * hugePageSize, VmaKind::Heap);
    proc.mmapAt(0x40000000 + 5 * hugePageSize, 2 * hugePageSize,
                VmaKind::Heap);
    for (Addr va = 0x40000000;
         va < 0x40000000 + 4 * hugePageSize; va += pageSize * 61) {
        tlbs.insertData(pageAlignDown(va), PageSize::Size4K);
    }
    EXPECT_EQ(auditor.sweep(), 0u);

    // Unmapping one VMA with TEA-backed tables still live elsewhere
    // must also audit clean (after the stale TLB entries are shot
    // down, as the OS would).
    proc.munmap(0x40000000 + 5 * hugePageSize);
    tlbs.flush();
    EXPECT_EQ(auditor.sweep(), 0u);
    EXPECT_TRUE(auditor.clean());
    proc.munmap(0x40000000);
}

TEST_F(AuditFixture, ScribbledTeaTablePointerIsDetected)
{
    LocalTeaSource source(alloc);
    TeaManager teas(proc.pageTable(), source);
    proc.pageTable().attachAuditor(auditor, "radix-pt");
    teas.attachAuditor(auditor, "tea");

    const Addr base = 0x40000000;
    ASSERT_NE(teas.createTea(base, 4 * hugePageSize,
                             PageSize::Size4K),
              nullptr);
    proc.mmapAt(base, 4 * hugePageSize, VmaKind::Heap);
    EXPECT_EQ(auditor.sweep(), 0u);

    // Scribble: repoint the L2 slot for `base` at a freshly
    // allocated data frame, exactly what a wild write into the
    // page-table area would do. The leaf PTEs the TEA claims to
    // mirror are no longer the ones a radix walk reaches.
    const auto path = proc.pageTable().walkPath(base);
    const auto l2Step = std::find_if(
        path.begin(), path.end(),
        [](const WalkStep &s) { return s.level == 2; });
    ASSERT_NE(l2Step, path.end());
    const auto stray = alloc.allocPages(0, FrameKind::Movable);
    ASSERT_TRUE(stray.has_value());
    const std::uint64_t good = l2Step->pte;
    mem.write64(l2Step->pteAddr,
                makePte(*stray, pte_flags::present |
                                    pte_flags::writable));

    EXPECT_GT(auditor.sweep(), 0u);
    // Both sides of the TEA <-> radix coherence invariant fire: the
    // walk now ends outside the TEA run, and the tree grew a "table"
    // frame the allocator says is data.
    EXPECT_TRUE(anyFrom(auditor.violations(), "tea"));
    EXPECT_TRUE(anyFrom(auditor.violations(), "radix-pt"));

    // Heal and verify silence again.
    mem.write64(l2Step->pteAddr, good);
    alloc.freePages(*stray, 0);
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);
    proc.munmap(base);
}

TEST_F(AuditFixture, BuddyDoubleFreeIsDetected)
{
    alloc.attachAuditor(auditor, "buddy");
    const auto block = alloc.allocPages(2, FrameKind::Unmovable);
    ASSERT_TRUE(block.has_value());
    EXPECT_EQ(auditor.sweep(), 0u);

    AuditCorruptor::injectFreeBlock(alloc, *block, 2);
    EXPECT_GT(auditor.sweep(), 0u);
    EXPECT_TRUE(anyFrom(auditor.violations(), "buddy"));
    const auto &violations = auditor.violations();
    EXPECT_TRUE(std::any_of(
        violations.begin(), violations.end(),
        [](const AuditViolation &v) {
            return v.detail.find("double free") != std::string::npos;
        }));

    AuditCorruptor::removeFreeBlock(alloc, *block, 2);
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);
    alloc.freePages(*block, 2);
    EXPECT_EQ(auditor.sweep(), 0u);
}

TEST_F(AuditFixture, StaleTlbEntryIsDetected)
{
    TlbHierarchy tlbs;
    tlbs.attachAuditor(
        auditor,
        [&](Addr va) -> std::optional<PageSize> {
            const auto tr = proc.pageTable().translate(va);
            if (!tr)
                return std::nullopt;
            return tr->size;
        },
        "tlb");

    const Addr va = 0x50000000;
    proc.mmapAt(va, hugePageSize, VmaKind::Heap);
    tlbs.insertData(va, PageSize::Size4K);
    EXPECT_EQ(auditor.sweep(), 0u);

    // Unmap without a TLB shootdown: the cached translation now
    // points at a page the table no longer maps.
    proc.munmap(va);
    EXPECT_GT(auditor.sweep(), 0u);
    EXPECT_TRUE(anyFrom(auditor.violations(), "tlb"));

    tlbs.flush();
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);
}

constexpr double tinyScale = 1.0 / 1024.0;  //!< 128 MB GUPS

/** A virt pvDMT testbed after setup and build, audited. */
struct VirtPvRig
{
    VirtPvRig() : wl(makeWorkload("GUPS", tinyScale)),
                  tb(wl->footprintBytes(), {})
    {
        tb.attachDmt(true);
        wl->setup(tb.proc());
        tb.build(Design::PvDmt);
        tb.attachAuditor(auditor);
    }

    InvariantAuditor auditor;  //!< must outlive the testbed
    std::unique_ptr<Workload> wl;
    VirtTestbed tb;
};

/** A nested pvDMT testbed after setup and build, audited. */
struct NestedPvRig
{
    NestedPvRig() : wl(makeWorkload("GUPS", tinyScale)),
                    tb(wl->footprintBytes(), {})
    {
        tb.attachPvDmt();
        wl->setup(tb.proc());
        tb.build(Design::PvDmt);
        tb.attachAuditor(auditor);
    }

    InvariantAuditor auditor;
    std::unique_ptr<Workload> wl;
    NestedTestbed tb;
};

/**
 * Point the container leaf at `va` one frame off, bypassing the frame
 * map; expect `checker` to report it, then restore the leaf and expect
 * a clean sweep.
 */
void
expectStaleFrameMapReported(InvariantAuditor &auditor,
                            RadixPageTable &container, Addr va,
                            const std::string &checker)
{
    ASSERT_EQ(auditor.sweep(), 0u);
    const auto tr = container.translate(va);
    ASSERT_TRUE(tr.has_value());
    container.updateLeaf(va, tr->pfn + 1);
    EXPECT_GT(auditor.sweep(), 0u);
    EXPECT_TRUE(anyFrom(auditor.violations(), checker));
    container.updateLeaf(va, tr->pfn);
    auditor.clearViolations();
    EXPECT_EQ(auditor.sweep(), 0u);
}

TEST(FrameMapAudit, VirtStaleEntryIsReported)
{
    VirtPvRig rig;
    expectStaleFrameMapReported(
        rig.auditor, rig.tb.vm().containerSpace().pageTable(),
        rig.tb.vm().gpaToHva(Addr{77} << pageShift), "vm-frames");
}

TEST(FrameMapAudit, NestedStaleEntriesAreReportedPerLayer)
{
    NestedPvRig rig;
    NestedStack &stack = rig.tb.stack();
    expectStaleFrameMapReported(rig.auditor,
                                stack.l1Container().pageTable(),
                                stack.l2paToL1va(Addr{77} << pageShift),
                                "l2-frames");
    expectStaleFrameMapReported(
        rig.auditor, stack.vm1().containerSpace().pageTable(),
        stack.vm1().gpaToHva(Addr{77} << pageShift), "l1-frames");
}

/**
 * Sweeping at every mutation event, through a container's whole life
 * (populate, pvDMT splices, compaction, munmap, re-mmap, growVma):
 * no sweep may land between a page-table change and its frame-map
 * update.
 */
TEST(FrameMapAudit, EveryEventSweepSeesNoHalfDoneLeafChange)
{
    for (const ThpMode thp : {ThpMode::Never, ThpMode::Always}) {
        InvariantAuditor auditor;
        PhysicalMemory hostMem(Addr{64} << 20);
        BuddyAllocator hostAlloc((Addr{64} << 20) >> pageShift);
        VmConfig cfg;
        cfg.vmBytes = Addr{4} << 20;
        cfg.hostThp = thp;
        VirtualMachine vm(hostMem, hostAlloc, cfg);
        AddressSpace &container = vm.containerSpace();
        hostAlloc.attachAuditor(auditor, "host-buddy");
        container.pageTable().attachAuditor(auditor, "host-pt");
        vm.frameMap().attachAuditor(auditor, container.pageTable(),
                                    "vm-frames");
        auditor.setInterval(1);

        GteaTable table;
        TeaHypercall hypercall(vm, hostAlloc, table);
        ASSERT_TRUE(hypercall.allocTea(8).has_value());
        if (thp == ThpMode::Never) {
            hostAlloc.setRelocationHook([&](Pfn from, Pfn to) {
                container.onFrameRelocated(from, to);
            });
            EXPECT_GT(hostAlloc.compact(64), 0u);
        }
        const Addr base = vm.gpaToHva(0);
        container.munmap(base);
        container.mmapAt(base, cfg.vmBytes / 2, VmaKind::MappedFile);
        container.growVma(base, cfg.vmBytes);

        EXPECT_GT(auditor.stats().sweeps, 100u);
        EXPECT_TRUE(auditor.clean())
            << auditor.violations().front().checker << ": "
            << auditor.violations().front().detail;
        auditor.setInterval(0);
    }
}

TEST(HostileGuest, VirtZeroPageTeaRequestIsRefused)
{
    VirtPvRig rig;
    TeaHypercall &hc = *rig.tb.hypercall();
    const Counter calls = hc.hypercalls();
    EXPECT_FALSE(hc.allocTea(0).has_value());
    EXPECT_EQ(hc.hypercalls(), calls + 1);
    EXPECT_EQ(rig.auditor.sweep(), 0u);
}

TEST(HostileGuest, NestedZeroPageTeaRequestIsRefused)
{
    NestedPvRig rig;
    NestedTeaHypercall &hc = *rig.tb.l2Hypercall();
    const Counter calls = hc.hypercalls();
    EXPECT_FALSE(hc.allocTea(0).has_value());
    EXPECT_EQ(hc.hypercalls(), calls + 1);
    EXPECT_EQ(rig.auditor.sweep(), 0u);
}

} // namespace
} // namespace dmt
