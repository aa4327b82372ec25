/**
 * @file
 * A process address space: VMA tree + radix page table + demand paging.
 *
 * This is the simulated OS's per-process memory manager. It allocates
 * movable data frames from the buddy allocator, optionally as 2 MB
 * transparent huge pages, and keeps a reverse map so compaction can
 * fix up PTEs when frames move.
 *
 * For virtualization, the same class serves every level: a guest
 * address space is simply constructed over a guest-physical allocator
 * and a guest-physical memory view.
 */

#ifndef DMT_OS_ADDRESS_SPACE_HH
#define DMT_OS_ADDRESS_SPACE_HH

#include <cstdint>
#include <vector>

#include "check/invariant_auditor.hh"
#include "common/types.hh"
#include "mem/memory.hh"
#include "os/buddy_allocator.hh"
#include "os/frame_map.hh"
#include "os/vma.hh"
#include "pt/radix_page_table.hh"

namespace dmt
{

/** Transparent-huge-page policy, mirroring Linux. */
enum class ThpMode
{
    Never,   //!< always 4 KB pages
    Always,  //!< use 2 MB pages wherever alignment and size permit
};

/** Configuration of a process address space. */
struct AddressSpaceConfig
{
    int ptLevels = 4;
    ThpMode thp = ThpMode::Never;
    /** Default start of the mmap region for hint-less mmap(). */
    Addr mmapBase = 0x10000000ull;
};

/** One process's virtual address space. */
class AddressSpace
{
  public:
    AddressSpace(Memory &mem, BuddyAllocator &allocator,
                 AddressSpaceConfig config = {});

    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    VmaTree &vmas() { return vmas_; }
    const VmaTree &vmas() const { return vmas_; }
    RadixPageTable &pageTable() { return pt_; }
    const RadixPageTable &pageTable() const { return pt_; }
    const AddressSpaceConfig &config() const { return config_; }

    /**
     * Create a VMA of `size` bytes at an OS-chosen address.
     * @param populate fault every page in immediately (the paper's
     *        workloads allocate at initialisation time)
     */
    const Vma &mmap(Addr size, VmaKind kind, bool populate = true);

    /** Create a VMA at a fixed address. */
    const Vma &mmapAt(Addr base, Addr size, VmaKind kind,
                      bool populate = true);

    /** Destroy the VMA at base, unmapping and freeing its frames. */
    void munmap(Addr base);

    /** Grow the VMA at base to new_size, populating the extension. */
    void growVma(Addr base, Addr new_size, bool populate = true);

    /**
     * Fault in the page containing va if not already mapped.
     * @return true if a new mapping was created.
     */
    bool touch(Addr va);

    /** Fault in every page of the given VMA. */
    void populate(const Vma &vma);

    /**
     * Compaction callback: frame `from` moved to `to`; update the PTE.
     * Wire via BuddyAllocator::setRelocationHook.
     */
    void onFrameRelocated(Pfn from, Pfn to);

    /**
     * Replace the physical backing of the 4 KB page containing va
     * with a caller-owned frame (the vm_insert_pages analogue used by
     * the pvDMT hypercall to splice host-contiguous gTEA frames into
     * the guest). A covering 2 MB mapping is demoted first. The old
     * frame is freed; the new frame is *not* tracked and remains
     * owned by the caller.
     */
    void replaceBacking(Addr va, Pfn new_frame);

    /**
     * Keep `map` exact from now on: every leaf this space maps,
     * unmaps, splices or relocates inside the map's window updates
     * its entries. Attach before the first mapping; the map must
     * outlive every later leaf change.
     */
    void attachFrameMap(FrameMap &map);

    /** Number of data frames (4 KB units) currently allocated. */
    std::uint64_t dataFrames() const { return dataFrames_; }

    /** Count of 2 MB mappings created by THP. */
    std::uint64_t hugeMappings() const { return hugeMappings_; }

  private:
    /** Map one page at va; picks 2 MB vs 4 KB per THP policy. */
    void mapPage(Addr va, const Vma &vma);

    /** Unmap + free frames for every mapped page of a range. */
    void releaseRange(Addr base, Addr size);

    /**
     * Reverse-map entry of a frame this space allocated: the page's
     * va, tagged with tracked (bit 0) and 2 MB (bit 1). Zero means
     * untracked. Only base frames of 2 MB pages carry an entry.
     */
    static constexpr std::uint64_t trackedBit = 1;
    static constexpr std::uint64_t hugeBit = 2;

    void track(Pfn pfn, Addr va, PageSize size);

    /** Drop pfn's entry. @return true if this space owned the frame. */
    bool untrack(Pfn pfn);

    /**
     * Hold interval audit sweeps across a leaf change, so none sees
     * the page table updated and the frame map not yet.
     */
    InvariantAuditor::Pause
    leafChange() const
    {
        return InvariantAuditor::Pause(frames_ ? frames_->auditor()
                                               : nullptr);
    }

    Memory &mem_;
    BuddyAllocator &allocator_;
    AddressSpaceConfig config_;
    VmaTree vmas_;
    RadixPageTable pt_;
    /** Reverse map for relocation fix-up, indexed by pfn. */
    std::vector<std::uint64_t> frameToVa_;
    /** Frame map kept exact at every leaf change, or null. */
    FrameMap *frames_ = nullptr;
    std::uint64_t dataFrames_ = 0;
    std::uint64_t hugeMappings_ = 0;
};

} // namespace dmt

#endif // DMT_OS_ADDRESS_SPACE_HH
