#include "mem/cache.hh"

#include <bit>

#include "check/audit.hh"
#include "common/log.hh"

namespace dmt
{

Cache::Cache(const CacheConfig &config) : config_(config)
{
    DMT_ASSERT(config.lineBytes > 0 &&
                   std::has_single_bit(
                       static_cast<unsigned>(config.lineBytes)),
               "line size must be a power of two");
    DMT_ASSERT(config.associativity > 0, "associativity must be > 0");
    const Addr lines = config.sizeBytes / config.lineBytes;
    DMT_ASSERT(lines % config.associativity == 0,
               "cache size must divide evenly into sets");
    numSets_ = lines / config.associativity;
    DMT_ASSERT(numSets_ > 0 && std::has_single_bit(numSets_),
               "number of sets must be a power of two");
    lineShift_ = std::countr_zero(
        static_cast<unsigned>(config.lineBytes));
    tags_.assign(numSets_ * config.associativity, invalidAddr);
    lastUse_.assign(numSets_ * config.associativity, 0);
}

void
Cache::insert(Addr addr)
{
    const std::size_t base = setIndex(addr) * config_.associativity;
    const Addr tag = tagOf(addr);
    ++tick_;
    int match = -1;
    for (int w = 0; w < config_.associativity; ++w) {
        if (tags_[base + w] == tag)
            match = w;
    }
    if (match >= 0) {
        lastUse_[base + match] = tick_;
        return;  // already resident
    }
    std::size_t victim = base;
    std::uint64_t best = lastUse_[base];
    for (int w = 1; w < config_.associativity; ++w) {
        // Branchless first-minimum: stamps are in random order, so a
        // conditional-move beats an unpredictable compare branch.
        const std::uint64_t lu = lastUse_[base + w];
        const bool lower = lu < best;
        best = lower ? lu : best;
        victim = lower ? base + w : victim;
    }
    tags_[victim] = tag;
    lastUse_[victim] = tick_;
    mru_ = victim;
}

void
Cache::invalidate(Addr addr)
{
    const std::size_t base = setIndex(addr) * config_.associativity;
    const Addr tag = tagOf(addr);
    for (int w = 0; w < config_.associativity; ++w) {
        if (tags_[base + w] == tag) {
            tags_[base + w] = invalidAddr;
            lastUse_[base + w] = 0;
            return;
        }
    }
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t base = setIndex(addr) * config_.associativity;
    const Addr tag = tagOf(addr);
    bool found = false;
    for (int w = 0; w < config_.associativity; ++w)
        found |= tags_[base + w] == tag;
    return found;
}

void
Cache::flush()
{
    tags_.assign(tags_.size(), invalidAddr);
    lastUse_.assign(lastUse_.size(), 0);
}

void
Cache::audit(AuditSink &sink) const
{
    for (std::size_t set = 0; set < numSets_; ++set) {
        const std::size_t base = set * config_.associativity;
        for (int w = 0; w < config_.associativity; ++w) {
            const Addr tag = tags_[base + w];
            if (tag == invalidAddr)
                continue;
            DMT_AUDIT_CHECK(sink, (tag & (numSets_ - 1)) == set,
                            "%s: tag 0x%llx sits in set %zu but "
                            "indexes to set %llu",
                            config_.name.c_str(),
                            static_cast<unsigned long long>(tag),
                            set,
                            static_cast<unsigned long long>(
                                tag & (numSets_ - 1)));
            DMT_AUDIT_CHECK(sink, lastUse_[base + w] <= tick_,
                            "%s: LRU stamp %llu ahead of the cache "
                            "clock %llu",
                            config_.name.c_str(),
                            static_cast<unsigned long long>(
                                lastUse_[base + w]),
                            static_cast<unsigned long long>(tick_));
            DMT_AUDIT_CHECK(sink, lastUse_[base + w] > 0,
                            "%s: resident line 0x%llx in set %zu "
                            "carries the invalid-way LRU stamp 0",
                            config_.name.c_str(),
                            static_cast<unsigned long long>(tag),
                            set);
            for (int v = w + 1; v < config_.associativity; ++v) {
                if (tags_[base + v] == invalidAddr)
                    continue;
                DMT_AUDIT_CHECK(sink, tags_[base + v] != tag,
                                "%s: line 0x%llx resident twice in "
                                "set %zu",
                                config_.name.c_str(),
                                static_cast<unsigned long long>(tag),
                                set);
                DMT_AUDIT_CHECK(sink,
                                lastUse_[base + v] !=
                                    lastUse_[base + w],
                                "%s: two ways of set %zu share LRU "
                                "stamp %llu",
                                config_.name.c_str(), set,
                                static_cast<unsigned long long>(
                                    lastUse_[base + w]));
            }
        }
    }
}

} // namespace dmt
