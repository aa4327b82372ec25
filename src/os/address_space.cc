#include "os/address_space.hh"

#include "common/log.hh"

namespace dmt
{

AddressSpace::AddressSpace(Memory &mem, BuddyAllocator &allocator,
                           AddressSpaceConfig config)
    : mem_(mem), allocator_(allocator), config_(config),
      pt_(mem, allocator, config.ptLevels),
      frameToVa_(static_cast<std::size_t>(allocator.numFrames()), 0)
{
}

AddressSpace::~AddressSpace()
{
    // Free data frames before the page table tears itself down, in
    // ascending frame order, so teardown makes the same allocator
    // calls in the same order on every run.
    for (std::size_t pfn = 0; pfn < frameToVa_.size(); ++pfn) {
        const std::uint64_t entry = frameToVa_[pfn];
        if (entry & trackedBit)
            allocator_.freePages(pfn, (entry & hugeBit) ? 9 : 0);
    }
}

void
AddressSpace::track(Pfn pfn, Addr va, PageSize size)
{
    DMT_ASSERT(pfn < frameToVa_.size(), "frame 0x%llx out of range",
               static_cast<unsigned long long>(pfn));
    frameToVa_[pfn] = va | trackedBit |
                      (size == PageSize::Size2M ? hugeBit : 0);
}

bool
AddressSpace::untrack(Pfn pfn)
{
    if (pfn >= frameToVa_.size() || !(frameToVa_[pfn] & trackedBit))
        return false;
    frameToVa_[pfn] = 0;
    return true;
}

const Vma &
AddressSpace::mmap(Addr size, VmaKind kind, bool populate)
{
    size = pageAlignUp(size);
    const Addr base = vmas_.findFreeRange(config_.mmapBase, size);
    return mmapAt(base, size, kind, populate);
}

const Vma &
AddressSpace::mmapAt(Addr base, Addr size, VmaKind kind, bool populate)
{
    size = pageAlignUp(size);
    const Vma &vma = vmas_.create(base, size, kind);
    if (populate)
        this->populate(vma);
    return vma;
}

void
AddressSpace::munmap(Addr base)
{
    const Vma *vma = vmas_.findByBase(base);
    if (!vma)
        panic("munmap: no VMA at 0x%llx",
              static_cast<unsigned long long>(base));
    releaseRange(vma->base, vma->size);
    vmas_.destroy(base);
}

void
AddressSpace::growVma(Addr base, Addr new_size, bool populate)
{
    vmas_.grow(base, new_size);
    if (populate) {
        const Vma *vma = vmas_.findByBase(base);
        this->populate(*vma);
    }
}

void
AddressSpace::mapPage(Addr va, const Vma &vma)
{
    if (config_.thp == ThpMode::Always) {
        const Addr hugeBase = pageAlignDown(va, PageSize::Size2M);
        if (hugeBase >= vma.base &&
            hugeBase + hugePageSize <= vma.end()) {
            // The whole 2 MB region lies inside the VMA: try a huge
            // frame; fall through to 4 KB on contiguity failure.
            const auto frame =
                allocator_.allocPages(9, FrameKind::Movable);
            if (frame) {
                const auto pause = leafChange();
                pt_.map(hugeBase, *frame, PageSize::Size2M);
                if (frames_)
                    frames_->map(hugeBase, hugePageSize, *frame);
                track(*frame, hugeBase, PageSize::Size2M);
                dataFrames_ += 512;
                ++hugeMappings_;
                return;
            }
        }
    }
    const Addr pageBase = pageAlignDown(va);
    const auto frame = allocator_.allocPages(0, FrameKind::Movable);
    if (!frame)
        fatal("out of physical memory for data pages");
    const auto pause = leafChange();
    pt_.map(pageBase, *frame, PageSize::Size4K);
    if (frames_)
        frames_->map(pageBase, pageSize, *frame);
    track(*frame, pageBase, PageSize::Size4K);
    ++dataFrames_;
}

bool
AddressSpace::touch(Addr va)
{
    if (pt_.translate(va))
        return false;
    const Vma *vma = vmas_.find(va);
    if (!vma)
        panic("touch: segfault at 0x%llx (no VMA)",
              static_cast<unsigned long long>(va));
    mapPage(va, *vma);
    return true;
}

void
AddressSpace::populate(const Vma &vma)
{
    for (Addr va = vma.base; va < vma.end(); va += pageSize)
        touch(va);
}

void
AddressSpace::releaseRange(Addr base, Addr size)
{
    Addr va = base;
    const Addr end = base + size;
    while (va < end) {
        const auto tr = pt_.translate(va);
        if (!tr) {
            va += pageSize;
            continue;
        }
        const Addr bytes = pageBytesOf(tr->size);
        const Addr pageBase = pageAlignDown(va, tr->size);
        {
            const auto pause = leafChange();
            pt_.unmap(pageBase);
            if (frames_)
                frames_->unmap(pageBase, bytes);
        }
        const int order = tr->size == PageSize::Size2M ? 9 : 0;
        DMT_ASSERT(tr->size != PageSize::Size1G,
                   "1 GB data pages are not allocated by this OS");
        // Untracked frames were spliced in by someone else
        // (replaceBacking) and stay owned by them.
        if (untrack(tr->pfn)) {
            allocator_.freePages(tr->pfn, order);
            dataFrames_ -= (order == 9) ? 512 : 1;
            if (order == 9)
                --hugeMappings_;
        }
        va = pageBase + bytes;
    }
}

void
AddressSpace::replaceBacking(Addr va, Pfn new_frame)
{
    auto tr = pt_.translate(va);
    DMT_ASSERT(tr.has_value(), "replaceBacking: va 0x%llx unmapped",
               static_cast<unsigned long long>(va));
    if (tr->size == PageSize::Size2M) {
        const Addr hugeVa = pageAlignDown(va, PageSize::Size2M);
        const Pfn basePfn = tr->pfn;
        const bool ok = pt_.demote2M(hugeVa);
        DMT_ASSERT(ok, "demote2M failed in replaceBacking");
        untrack(basePfn);
        DMT_ASSERT(hugeMappings_ > 0, "huge mapping underflow");
        --hugeMappings_;
        for (int i = 0; i < 512; ++i)
            track(basePfn + i, hugeVa + i * pageSize, PageSize::Size4K);
        tr = pt_.translate(va);
    }
    DMT_ASSERT(tr->size == PageSize::Size4K,
               "replaceBacking expects 4 KB granularity");
    const Addr pageVa = pageAlignDown(va);
    const Pfn old = tr->pfn;
    {
        // The demote above changed no translation; this does.
        const auto pause = leafChange();
        pt_.updateLeaf(pageVa, new_frame);
        if (frames_)
            frames_->map(pageVa, pageSize, new_frame);
    }
    // Free the displaced frame only if this space owns it. An
    // untracked frame was itself spliced in earlier (e.g. a prior
    // gTEA grant re-pointed here) and stays owned by its splicer.
    if (untrack(old)) {
        allocator_.freePages(old, 0);
        DMT_ASSERT(dataFrames_ > 0, "data frame underflow");
        --dataFrames_;
    }
}

void
AddressSpace::attachFrameMap(FrameMap &map)
{
    DMT_ASSERT(frames_ == nullptr && dataFrames_ == 0,
               "attach the frame map before the first mapping");
    frames_ = &map;
}

void
AddressSpace::onFrameRelocated(Pfn from, Pfn to)
{
    const std::uint64_t entry =
        from < frameToVa_.size() ? frameToVa_[from] : 0;
    if (!(entry & trackedBit))
        return;  // frame belongs to another address space
    DMT_ASSERT(!(entry & hugeBit), "compaction moves 4 KB frames only");
    const Addr va = entry & ~pageMask;
    mem_.copyRange(to << pageShift, from << pageShift, pageSize);
    {
        const auto pause = leafChange();
        pt_.updateLeaf(va, to);
        if (frames_)
            frames_->map(va, pageSize, to);
    }
    untrack(from);
    track(to, va, PageSize::Size4K);
}

} // namespace dmt
