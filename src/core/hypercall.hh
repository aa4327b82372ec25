/**
 * @file
 * The KVM_HC_ALLOC_TEA hypercall (§4.5.1).
 *
 * Under pvDMT the host allocates gTEAs on the guest's behalf so that
 * they are contiguous in *host* physical memory, then splices the
 * allocated host frames into the guest-physical space (the
 * vm_insert_pages analogue) so the guest can update its PTEs without
 * VM exits. The host records every run in the guest's gTEA table and
 * hands back an ID.
 *
 * For nested virtualization the hypercall cascades: the L1 hypervisor
 * forwards L2 requests to L0, and the run ends up contiguous in L0
 * physical memory, backed through both intermediate layers (§4.5.3).
 *
 * Costs follow the paper's §6.3 measurements: a fixed hypercall
 * overhead (1.88 us single-level / 10.75 us nested) plus the host's
 * contiguous-allocation work, modeled per page.
 */

#ifndef DMT_CORE_HYPERCALL_HH
#define DMT_CORE_HYPERCALL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "core/gtea_table.hh"
#include "core/tea_manager.hh"
#include "virt/nested_stack.hh"
#include "virt/virtual_machine.hh"

namespace dmt
{

/** Result of one KVM_HC_ALLOC_TEA request. */
struct TeaGrant
{
    Pfn gpaBasePfn = 0;   //!< guest-physical base of the run
    Pfn hostBasePfn = 0;  //!< host-physical base (contiguous)
    std::uint64_t pages = 0;
    int gteaId = -1;
};

/** Host-side handler for the single-level pvDMT hypercall. */
class TeaHypercall
{
  public:
    /** Per-page contiguous-allocation cost (§6.3: ~1 us per 4 KB
     *  TEA page at 2 GHz, from the 50/100/200 MB measurements). */
    static constexpr Cycles allocCyclesPerPage = 2100;

    TeaHypercall(VirtualMachine &vm, BuddyAllocator &host_alloc,
                 GteaTable &gtea_table);

    ~TeaHypercall();

    TeaHypercall(const TeaHypercall &) = delete;
    TeaHypercall &operator=(const TeaHypercall &) = delete;

    /**
     * KVM_HC_ALLOC_TEA: allocate a host-contiguous run of `pages`
     * table frames and splice it into guest-physical space.
     *
     * @return the grant, or nullopt if host contiguity (or guest
     *         physical space) is unavailable — the guest then splits
     *         its mapping and retries with smaller requests. A
     *         request for zero pages is refused (and still charged).
     */
    std::optional<TeaGrant> allocTea(std::uint64_t pages);

    /**
     * Invalidate a grant's gTEA table entry. The spliced backing
     * stays in place (it is ordinary guest memory now); the gPA run
     * is returned to the guest allocator by the caller's TeaManager.
     */
    void freeTea(int gtea_id);

    Counter hypercalls() const { return hypercalls_; }

    /** Accumulated simulated cost of all hypercalls (cycles). */
    Cycles simulatedCost() const { return cost_; }

    /** Cost of the most recent hypercall (cycles). */
    Cycles lastCost() const { return lastCost_; }

  private:
    VirtualMachine &vm_;
    BuddyAllocator &hostAlloc_;
    GteaTable &table_;
    std::vector<TeaGrant> grants_;
    Counter hypercalls_ = 0;
    Cycles cost_ = 0;
    Cycles lastCost_ = 0;
};

/** TeaFrameSource that obtains guest TEA frames via the hypercall. */
class PvTeaSource : public TeaFrameSource
{
  public:
    explicit PvTeaSource(TeaHypercall &hypercall,
                         BuddyAllocator &guest_alloc)
        : hypercall_(hypercall), guestAlloc_(guest_alloc)
    {
    }

    std::optional<TeaBacking> alloc(std::uint64_t pages) override;
    void free(const TeaBacking &backing) override;

    /** Host-contiguous runs cannot be grown in place via the
     *  hypercall; force the migration path. */
    bool
    expand(TeaBacking &, std::uint64_t) override
    {
        return false;
    }

  private:
    TeaHypercall &hypercall_;
    BuddyAllocator &guestAlloc_;
};

/**
 * The cascaded hypercall for nested virtualization: an L2 request is
 * forwarded by L1 to L0; the resulting run is contiguous in L0
 * physical memory and spliced through both the L1-container and
 * L0-container layers.
 */
class NestedTeaHypercall
{
  public:
    NestedTeaHypercall(NestedStack &stack, BuddyAllocator &l0_alloc,
                       GteaTable &gtea_table);

    ~NestedTeaHypercall();

    NestedTeaHypercall(const NestedTeaHypercall &) = delete;
    NestedTeaHypercall &operator=(const NestedTeaHypercall &) = delete;

    /**
     * Allocate an L0-contiguous run of L2 table frames; nullopt as
     * for TeaHypercall::allocTea, zero pages included.
     */
    std::optional<TeaGrant> allocTea(std::uint64_t pages);

    void freeTea(int gtea_id);

    Counter hypercalls() const { return hypercalls_; }
    Cycles simulatedCost() const { return cost_; }
    Cycles lastCost() const { return lastCost_; }

  private:
    NestedStack &stack_;
    BuddyAllocator &l0Alloc_;
    GteaTable &table_;
    std::vector<TeaGrant> grants_;
    std::vector<std::pair<Pfn, std::uint64_t>> l1Runs_;
    Counter hypercalls_ = 0;
    Cycles cost_ = 0;
    Cycles lastCost_ = 0;
};

/** TeaFrameSource for the L2 guest backed by the cascade. */
class NestedPvTeaSource : public TeaFrameSource
{
  public:
    NestedPvTeaSource(NestedTeaHypercall &hypercall,
                      BuddyAllocator &l2_alloc)
        : hypercall_(hypercall), l2Alloc_(l2_alloc)
    {
    }

    std::optional<TeaBacking> alloc(std::uint64_t pages) override;
    void free(const TeaBacking &backing) override;

    bool
    expand(TeaBacking &, std::uint64_t) override
    {
        return false;
    }

  private:
    NestedTeaHypercall &hypercall_;
    BuddyAllocator &l2Alloc_;
};

} // namespace dmt

#endif // DMT_CORE_HYPERCALL_HH
