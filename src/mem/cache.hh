/**
 * @file
 * A functional set-associative cache with LRU replacement.
 *
 * This models hit/miss behaviour only; latency is charged by the
 * MemoryHierarchy based on which level hits. Used for L1D, L2, and the
 * shared LLC (Table 3 of the paper).
 */

#ifndef DMT_MEM_CACHE_HH
#define DMT_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "common/types.hh"

namespace dmt
{

class AuditSink;

/** Configuration of one cache level. */
struct CacheConfig
{
    std::string name;       //!< for stats/debugging
    Addr sizeBytes;         //!< total capacity
    int associativity;      //!< ways per set
    int lineBytes = 64;     //!< cache line size
    Cycles roundTrip = 0;   //!< access latency when this level hits
};

/** Set-associative cache with true-LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up a line; on hit, the line is promoted to MRU.
     * A one-entry MRU filter short-circuits the set scan when the
     * same line is touched back to back (common for walk metadata);
     * the filter is invisible in stats — hit/miss counters and LRU
     * stamps evolve exactly as the plain scan would.
     * Defined inline below: every simulated access runs this several
     * times per hierarchy level, so the body must inline into the
     * MemoryHierarchy cascade rather than cost a cross-TU call.
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Insert the line containing addr, evicting the LRU way. */
    void insert(Addr addr);

    /**
     * Fused access()-then-insert(): look up a line and, on miss, fill
     * it in the same set scan. Exactly equivalent to `access(addr)`
     * followed (on miss) by `insert(addr)` — same hit/miss counters,
     * LRU stamps, victim choice, and MRU filter state — but with one
     * scan instead of two. The simulator loop uses this for
     * every hierarchy level that both probes and fills.
     * @return true on hit.
     */
    bool accessFill(Addr addr);

    /** Invalidate the line containing addr if present. */
    void invalidate(Addr addr);

    /** @return true if the line is resident (no LRU update). */
    bool probe(Addr addr) const;

    /** Drop all contents. */
    void flush();

    /**
     * Audit-layer entry point: report every resident line whose tag
     * does not index to the set it occupies, duplicate tags within a
     * set (phantom extra occupancy), and malformed LRU ages — stamps
     * ahead of the cache's clock or shared by two ways of one set.
     */
    void audit(AuditSink &sink) const;

    const CacheConfig &config() const { return config_; }
    Counter hits() const { return hits_; }
    Counter misses() const { return misses_; }

  private:
    std::size_t setIndex(Addr addr) const;
    Addr tagOf(Addr addr) const;

    /**
     * Hot-path bodies specialized on the way count: access()/
     * accessFill() dispatch to an instantiation whose scan loops
     * have compile-time trip counts (kAssoc == 0 is the generic
     * runtime-bound fallback), so the tag sweep unrolls and
     * vectorizes instead of looping on a loaded bound.
     */
    template <int kAssoc> bool accessTpl(Addr addr);
    template <int kAssoc> bool accessFillTpl(Addr addr);

    CacheConfig config_;
    std::size_t numSets_;
    int lineShift_;
    /**
     * Set-major struct-of-arrays way state: the match scan streams
     * over contiguous 8-byte tags (vectorizable, two lines for a
     * 16-way set) instead of 24-byte way structs. A way is invalid
     * iff its tag is `invalidAddr` (real tags are `addr >> lineShift_`
     * and cannot reach it); invalid ways keep `lastUse_ == 0`, below
     * every valid stamp (the clock pre-increments, so valid ways are
     * stamped >= 1). Victim selection is then a plain first-minimum
     * scan of lastUse_, which reproduces the AoS scan's choice
     * exactly: first invalid way if any, else lowest stamp, ties to
     * the lowest way index.
     */
    std::vector<Addr> tags_;            //!< numSets_ * associativity
    std::vector<std::uint64_t> lastUse_;  //!< LRU stamps, same layout
    /**
     * Index of the most recently hit/inserted way. A tag match here
     * is conclusive: tags embed the set index, so an equal tag in
     * the wrong set is impossible while the set-indexing invariant
     * (audited) holds.
     */
    std::size_t mru_ = 0;
    std::uint64_t tick_ = 0;
    Counter hits_ = 0;
    Counter misses_ = 0;
};

inline std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

inline Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

template <int kAssoc>
bool
Cache::accessTpl(Addr addr)
{
    const int assoc = kAssoc ? kAssoc : config_.associativity;
    const Addr tag = tagOf(addr);
    ++tick_;
    // MRU filter: repeated touches of one line skip the set scan.
    // Counter and LRU updates are identical to the scan's hit path.
    if (tags_[mru_] == tag) {
        lastUse_[mru_] = tick_;
        ++hits_;
        return true;
    }
    const std::size_t base = setIndex(addr) * assoc;
    // Tag scan over the contiguous tag array; invalid ways hold
    // the unmatchable sentinel, so no validity check.
    const int match = simd::findLastEqU64(&tags_[base], assoc, tag);
    if (match >= 0) {
        lastUse_[base + match] = tick_;
        ++hits_;
        mru_ = base + match;
        return true;
    }
    ++misses_;
    return false;
}

inline bool
Cache::access(Addr addr)
{
    // One predictable jump buys compile-time scan bounds; the
    // default arm keeps arbitrary geometries working.
    switch (config_.associativity) {
      case 4:
        return accessTpl<4>(addr);
      case 8:
        return accessTpl<8>(addr);
      case 11:
        return accessTpl<11>(addr);
      case 12:
        return accessTpl<12>(addr);
      case 16:
        return accessTpl<16>(addr);
      default:
        return accessTpl<0>(addr);
    }
}

template <int kAssoc>
bool
Cache::accessFillTpl(Addr addr)
{
    const int assoc = kAssoc ? kAssoc : config_.associativity;
    const Addr tag = tagOf(addr);
    ++tick_;
    if (tags_[mru_] == tag) {
        lastUse_[mru_] = tick_;
        ++hits_;
        return true;
    }
    const std::size_t base = setIndex(addr) * assoc;
    const int match = simd::findLastEqU64(&tags_[base], assoc, tag);
    if (match >= 0) {
        lastUse_[base + match] = tick_;
        ++hits_;
        mru_ = base + match;
        return true;
    }
    ++misses_;
    // The fill runs on the insert()'s own clock tick, so LRU stamps
    // evolve exactly as the split access+insert pair's would.
    ++tick_;
    // First-minimum victim scan: stamps are in random order, so the
    // lane-parallel (or conditional-move) sweep beats an
    // unpredictable compare branch per way.
    const std::size_t victim =
        base + static_cast<std::size_t>(
                   simd::minIndexU64(&lastUse_[base], assoc));
    tags_[victim] = tag;
    lastUse_[victim] = tick_;
    mru_ = victim;
    return false;
}

inline bool
Cache::accessFill(Addr addr)
{
    switch (config_.associativity) {
      case 4:
        return accessFillTpl<4>(addr);
      case 8:
        return accessFillTpl<8>(addr);
      case 11:
        return accessFillTpl<11>(addr);
      case 12:
        return accessFillTpl<12>(addr);
      case 16:
        return accessFillTpl<16>(addr);
      default:
        return accessFillTpl<0>(addr);
    }
}

} // namespace dmt

#endif // DMT_MEM_CACHE_HH
