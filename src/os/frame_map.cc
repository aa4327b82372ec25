#include "os/frame_map.hh"

#include <algorithm>

#include "check/audit.hh"
#include "pt/radix_page_table.hh"

namespace dmt
{

FrameMap::FrameMap(Addr base, Addr bytes, Pfn backing_frames)
    : base_(base),
      frames_(static_cast<std::size_t>(bytes >> pageShift), unbacked)
{
    DMT_ASSERT((base & pageMask) == 0 && (bytes & pageMask) == 0,
               "frame map window must be page aligned");
    DMT_ASSERT(backing_frames <= unbacked,
               "%llu backing frames do not fit 32-bit frame map "
               "entries (16 TB at most)",
               static_cast<unsigned long long>(backing_frames));
}

FrameMap::~FrameMap()
{
    if (auditor_)
        auditor_->unregisterHook(auditHookId_);
}

bool
FrameMap::clip(Addr va, Addr bytes, std::uint64_t &first,
               std::uint64_t &last) const
{
    const Addr lo = std::max(va, base_);
    const Addr hi = std::min(va + bytes, base_ + this->bytes());
    if (lo >= hi)
        return false;
    first = (lo - base_) >> pageShift;
    last = (hi - base_) >> pageShift;
    return true;
}

void
FrameMap::map(Addr va, Addr bytes, Pfn first)
{
    std::uint64_t lo = 0, hi = 0;
    if (!clip(va, bytes, lo, hi))
        return;
    // Entry lo lies (base_ + lo pages - va) past the leaf's start.
    Pfn frame = first + ((base_ + (lo << pageShift) - va) >> pageShift);
    for (std::uint64_t i = lo; i < hi; ++i)
        frames_[i] = static_cast<std::uint32_t>(frame++);
}

void
FrameMap::unmap(Addr va, Addr bytes)
{
    std::uint64_t lo = 0, hi = 0;
    if (!clip(va, bytes, lo, hi))
        return;
    std::fill(frames_.begin() + static_cast<std::ptrdiff_t>(lo),
              frames_.begin() + static_cast<std::ptrdiff_t>(hi),
              unbacked);
}

void
FrameMap::audit(const RadixPageTable &pt, AuditSink &sink) const
{
    for (std::size_t i = 0; i < frames_.size(); ++i) {
        const Addr va = base_ + (Addr{i} << pageShift);
        const auto tr = pt.translate(va);
        const std::uint64_t walked =
            tr ? (tr->pa >> pageShift) : std::uint64_t{unbacked};
        DMT_AUDIT_CHECK(sink, frames_[i] == walked,
                        "frame map entry of va 0x%llx is 0x%llx, a "
                        "walk of the container table gives 0x%llx",
                        static_cast<unsigned long long>(va),
                        static_cast<unsigned long long>(frames_[i]),
                        static_cast<unsigned long long>(walked));
    }
}

void
FrameMap::attachAuditor(InvariantAuditor &auditor,
                        const RadixPageTable &pt,
                        const std::string &name)
{
    DMT_ASSERT(auditor_ == nullptr, "frame map already audited");
    auditor_ = &auditor;
    auditHookId_ = auditor.registerHook(
        name, [this, &pt](AuditSink &sink) { audit(pt, sink); });
}

} // namespace dmt
