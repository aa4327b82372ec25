/**
 * @file
 * Guest-physical memory view.
 *
 * Presents a guest's physical address space as a Memory object by
 * translating every access into the backing (host-)physical memory.
 * Guest page tables are built on this view, so their entries are
 * genuinely resident at host physical addresses — which is what the
 * 2-D walker and the DMT fetcher charge cache accesses against.
 * Views compose, which is how the L2 space of nested virtualization
 * is reached through two translation layers.
 *
 * The translation is one read of the container's exact FrameMap, not
 * a walk of its page table. Range operations (table zeroing,
 * leaf-table relocation, TEA migration) run page by page: one
 * translation per 4 KB chunk, then the backing store's own range op
 * on the chunk. Every guest mapping is at least 4 KB and page
 * aligned, so a chunk that stays inside one guest page is contiguous
 * in the backing space.
 */

#ifndef DMT_VIRT_GUEST_MEMORY_VIEW_HH
#define DMT_VIRT_GUEST_MEMORY_VIEW_HH

#include <algorithm>

#include "common/log.hh"
#include "common/types.hh"
#include "mem/memory.hh"
#include "os/frame_map.hh"

namespace dmt
{

/** Memory view applying a gPA -> backing-PA translation per access. */
class GuestMemoryView final : public Memory
{
  public:
    /** @param frames gPA -> backing frame map; must outlive the view */
    GuestMemoryView(Memory &backing, const FrameMap &frames)
        : backing_(backing), frames_(frames)
    {
    }

    std::uint64_t
    read64(Addr pa) const override
    {
        return backing_.read64(frames_.translate(pa));
    }

    void
    write64(Addr pa, std::uint64_t value) override
    {
        backing_.write64(frames_.translate(pa), value);
    }

    void
    zeroRange(Addr pa, Addr bytes) override
    {
        DMT_ASSERT((pa & 7) == 0 && (bytes & 7) == 0,
                   "zeroRange must be word aligned");
        while (bytes > 0) {
            const Addr chunk = std::min(bytes, pageSize - (pa & pageMask));
            backing_.zeroRange(frames_.translate(pa), chunk);
            pa += chunk;
            bytes -= chunk;
        }
    }

    void
    copyRange(Addr dst, Addr src, Addr bytes) override
    {
        DMT_ASSERT((dst & 7) == 0 && (src & 7) == 0 && (bytes & 7) == 0,
                   "copyRange must be word aligned");
        DMT_ASSERT(dst + bytes <= src || src + bytes <= dst,
                   "copyRange ranges must not overlap");
        while (bytes > 0) {
            // Chunks never straddle a page on either side.
            const Addr chunk =
                std::min({bytes, pageSize - (dst & pageMask),
                          pageSize - (src & pageMask)});
            backing_.copyRange(frames_.translate(dst),
                               frames_.translate(src), chunk);
            dst += chunk;
            src += chunk;
            bytes -= chunk;
        }
    }

  private:
    Memory &backing_;
    const FrameMap &frames_;
};

} // namespace dmt

#endif // DMT_VIRT_GUEST_MEMORY_VIEW_HH
