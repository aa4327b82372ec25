/**
 * @file
 * Abstract word-addressable memory interface.
 *
 * Page tables are built against this interface rather than against
 * PhysicalMemory directly so that a *guest* page table can store its
 * entries in guest-physical space: a view object translates each
 * guest-physical access into the backing host-physical access. That is
 * exactly how nested paging composes on real hardware, and it lets the
 * same RadixPageTable implementation serve every virtualization level.
 */

#ifndef DMT_MEM_MEMORY_HH
#define DMT_MEM_MEMORY_HH

#include <cstdint>

#include "common/types.hh"

namespace dmt
{

/** Word-addressable memory (physical, or a translated view). */
class Memory
{
  public:
    virtual ~Memory() = default;

    /**
     * Optional zero-copy read window. When the implementation's whole
     * address range lives in one contiguous host array of aligned
     * words it returns {array, bytes}; otherwise {nullptr, 0} (the
     * default — e.g. translated guest views) and readers must go
     * through read64(). Hot read loops (the walkers' PTE chases)
     * cache the window once and turn each aligned in-range read into
     * a single indexed load, skipping the virtual call. The window is
     * read-only; writes always go through write64() so the backing
     * store's accounting stays correct.
     */
    struct ReadWindow
    {
        const std::uint64_t *words = nullptr;
        Addr bytes = 0;

        /** read64(pa) for aligned pa, via the window when possible. */
        std::uint64_t
        read(const Memory &mem, Addr pa) const
        {
            if (pa + 8 <= bytes) [[likely]]
                return words[pa >> 3];
            return mem.read64(pa);
        }
    };

    virtual ReadWindow readWindow() const { return {}; }

    /** Read an aligned 64-bit word; unwritten words read as zero. */
    virtual std::uint64_t read64(Addr pa) const = 0;

    /** Write an aligned 64-bit word. */
    virtual void write64(Addr pa, std::uint64_t value) = 0;

    /**
     * Zero-fill an aligned byte range. The default word loops here are
     * the reference the faster overrides are tested against.
     */
    virtual void
    zeroRange(Addr pa, Addr bytes)
    {
        for (Addr off = 0; off < bytes; off += 8)
            write64(pa + off, 0);
    }

    /** Copy a non-overlapping aligned byte range. */
    virtual void
    copyRange(Addr dst, Addr src, Addr bytes)
    {
        for (Addr off = 0; off < bytes; off += 8)
            write64(dst + off, read64(src + off));
    }
};

} // namespace dmt

#endif // DMT_MEM_MEMORY_HH
