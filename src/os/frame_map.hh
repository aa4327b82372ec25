/**
 * @file
 * Exact frame map of a guest-physical window.
 *
 * A hypervisor backs a guest's physical memory with one VMA of its
 * container process. A FrameMap holds, for every 4 KB page of that
 * window, the frame the container's page table maps it to, so a
 * guest-physical address resolves with one array read instead of a
 * page-table walk. The container's AddressSpace keeps the map exact
 * (AddressSpace::attachFrameMap): every leaf it maps, unmaps, splices
 * or relocates inside the window updates the matching entries.
 * Moving a page-table page changes no translation and no entry.
 *
 * Entries are 32-bit frame numbers, which bounds the backing store to
 * 16 TB; the constructor asserts it. The cost is 4 bytes per 4 KB of
 * guest-physical memory (1 MB per GB).
 */

#ifndef DMT_OS_FRAME_MAP_HH
#define DMT_OS_FRAME_MAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace dmt
{

class AuditSink;
class InvariantAuditor;
class RadixPageTable;

/** gfn-indexed array of the frames backing a page-aligned VA window. */
class FrameMap
{
  public:
    /** Entry of a page the container does not map. */
    static constexpr std::uint32_t unbacked = ~std::uint32_t{0};

    /**
     * @param base first VA of the window in the container
     * @param bytes window size
     * @param backing_frames frames of the backing store; every one
     *        must fit a 32-bit entry other than `unbacked`
     */
    FrameMap(Addr base, Addr bytes, Pfn backing_frames);

    ~FrameMap();

    FrameMap(const FrameMap &) = delete;
    FrameMap &operator=(const FrameMap &) = delete;

    Addr bytes() const { return Addr{frames_.size()} << pageShift; }

    /** Entry of the page holding window offset `off`. */
    std::uint32_t
    entry(Addr off) const
    {
        return frames_[off >> pageShift];
    }

    /**
     * Backing address of window offset `off`: the guest-physical to
     * backing-physical translation.
     */
    Addr
    translate(Addr off) const
    {
        DMT_ASSERT(off < bytes(),
                   "guest physical address 0x%llx beyond the %llu-byte "
                   "guest memory",
                   static_cast<unsigned long long>(off),
                   static_cast<unsigned long long>(bytes()));
        const std::uint32_t frame = frames_[off >> pageShift];
        DMT_ASSERT(frame != unbacked,
                   "guest physical memory not backed at 0x%llx",
                   static_cast<unsigned long long>(off));
        return (Addr{frame} << pageShift) | (off & pageMask);
    }

    /**
     * Leaf-change hook: [va, va + bytes) now maps to the frames from
     * `first` on. The part outside the window is ignored.
     */
    void map(Addr va, Addr bytes, Pfn first);

    /** Leaf-change hook: [va, va + bytes) is no longer mapped. */
    void unmap(Addr va, Addr bytes);

    /** The auditor checking this map, or null. */
    InvariantAuditor *auditor() const { return auditor_; }

    /**
     * Audit-layer entry point: every entry must equal a walk of the
     * container table `pt` at the page's VA.
     */
    void audit(const RadixPageTable &pt, AuditSink &sink) const;

    /**
     * Register this map's audit hook against `pt`. The auditor and
     * the table must outlive the map.
     */
    void attachAuditor(InvariantAuditor &auditor,
                       const RadixPageTable &pt,
                       const std::string &name);

  private:
    /** Clip [va, va + bytes) to the window as entry indices. */
    bool clip(Addr va, Addr bytes, std::uint64_t &first,
              std::uint64_t &last) const;

    Addr base_;
    std::vector<std::uint32_t> frames_;
    InvariantAuditor *auditor_ = nullptr;
    int auditHookId_ = 0;
};

} // namespace dmt

#endif // DMT_OS_FRAME_MAP_HH
