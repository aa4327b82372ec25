/**
 * @file
 * The full nested-virtualization stack (Figure 3): an L1 hypervisor
 * running inside an L0-hosted VM, itself hosting an L2 guest.
 *
 * Address spaces involved:
 *   L2 VA  --(L2 guest page table)-->  L2 PA
 *   L2 PA  --(L1 container process)--> L1 PA
 *   L1 PA  --(L0 container process)--> L0 PA
 *
 * Each container keeps an exact FrameMap of its window: L2 PA -> L1
 * PA is one read of the L1 container's map, and L1 PA -> L0 PA one
 * read of VM1's, so an L2 word costs two array reads, not walks.
 *
 * The baseline translates L2 VA with a 2-D walk over the L2 page
 * table and an L0-maintained shadow table compressing the two lower
 * layers (L2PA -> L0PA); pvDMT replaces the whole stack with three
 * direct PTE fetches.
 */

#ifndef DMT_VIRT_NESTED_STACK_HH
#define DMT_VIRT_NESTED_STACK_HH

#include <memory>

#include "common/types.hh"
#include "os/address_space.hh"
#include "os/frame_map.hh"
#include "virt/shadow_pager.hh"
#include "virt/virtual_machine.hh"

namespace dmt
{

class AuditSink;
class InvariantAuditor;

/** Configuration for a two-level (nested) virtualization stack. */
struct NestedConfig
{
    Addr l1Bytes = Addr{1} << 32;   //!< L1 VM physical memory
    Addr l2Bytes = Addr{3} << 30;   //!< L2 VM physical memory
    Addr l2paBaseL1va = 0x7e0000000000ull;
    ThpMode l0Thp = ThpMode::Never; //!< L0 container THP
    ThpMode l1Thp = ThpMode::Never; //!< L1 container THP
    ThpMode l2Thp = ThpMode::Never; //!< L2 guest process THP
};

/** L0 + L1 + L2 stack with all intermediate structures. */
class NestedStack
{
  public:
    NestedStack(Memory &l0_mem, BuddyAllocator &l0_alloc,
                const NestedConfig &config);

    ~NestedStack();

    /** The L1 VM (provides L1 physical memory on L0). */
    VirtualMachine &vm1() { return *vm1_; }

    /** L1 hypervisor's container process backing L2 physical memory. */
    AddressSpace &l1Container() { return *l1Container_; }

    /** The L2 PA -> L1 frame map the L1 container keeps exact. */
    FrameMap &l2FrameMap() { return l2Frames_; }

    /** L2-physical frame allocator. */
    BuddyAllocator &l2Allocator() { return *l2Alloc_; }

    /** L2 physical memory as a Memory object (resolves to L0). */
    Memory &l2Mem() { return *l2View_; }

    /** The L2 guest workload process (L2 VA -> L2 PA). */
    AddressSpace &l2Space() { return *l2Space_; }

    Addr l2paToL1va(Addr l2pa) const;
    Addr l2paToL1pa(Addr l2pa) const;
    Addr l1paToL0pa(Addr l1pa) const;
    Addr l2paToL0pa(Addr l2pa) const;

    /**
     * Build the baseline's shadow pager: an L0-maintained table
     * mapping L2PA (keyed as L1-container VAs) to L0PA.
     */
    std::unique_ptr<ShadowPager> makeL2ShadowPager(
        Memory &l0_mem, BuddyAllocator &l0_alloc);

    const NestedConfig &config() const { return config_; }

    /**
     * Audit-layer entry point: the whole L2PA -> L1PA -> L0PA chain
     * must stay walkable. Samples one page per 2 MB of L2 physical
     * memory (plus the last page) and reports any layer whose
     * translation has gone missing.
     */
    void audit(AuditSink &sink) const;

    /**
     * Register this stack's audit hook. The auditor must outlive the
     * stack.
     */
    void attachAuditor(InvariantAuditor &auditor,
                       const std::string &name = "nested");

  private:
    NestedConfig config_;
    std::unique_ptr<VirtualMachine> vm1_;
    std::unique_ptr<AddressSpace> l1Container_;
    FrameMap l2Frames_;
    std::unique_ptr<BuddyAllocator> l2Alloc_;
    std::unique_ptr<GuestMemoryView> l2View_;
    std::unique_ptr<AddressSpace> l2Space_;
    InvariantAuditor *auditor_ = nullptr;
    int auditHookId_ = 0;
};

} // namespace dmt

#endif // DMT_VIRT_NESTED_STACK_HH
