/**
 * @file
 * The two key scans every lookup structure runs.
 *
 * TLB sets, cache sets and PWC banks keep their match keys and LRU
 * stamps as contiguous 8-byte arrays, so a probe is one equality
 * sweep and a victim pick is one first-minimum sweep. Both are plain
 * scalar loops because vector versions of these short, fixed-trip
 * scans measured slower on the reference host (DESIGN.md §8.4).
 * House rule (dmtlint `raw-simd`): no file holds vendor intrinsics.
 */

#ifndef DMT_COMMON_SIMD_HH
#define DMT_COMMON_SIMD_HH

#include <cstdint>

namespace dmt
{
namespace simd
{

/**
 * Index of the LAST of the `n` elements at `p` equal to `key`, or -1
 * when none matches. For the lookup structures "last" is moot
 * (duplicate keys are an audited invariant violation), but the
 * contract is total. `n` may be 0.
 */
inline int
findLastEqU64(const std::uint64_t *p, int n, std::uint64_t key)
{
    int last = -1;
    for (int i = 0; i < n; ++i) {
        if (p[i] == key)
            last = i;
    }
    return last;
}

/**
 * Index of the first minimum of `n` (>= 1) elements, ties to the
 * lowest index. The victim-selection scan: invalid ways keep LRU
 * stamp 0, so the first minimum is the first invalid way if any,
 * else the true LRU way.
 */
inline int
minIndexU64(const std::uint64_t *p, int n)
{
    int best = 0;
    std::uint64_t min = p[0];
    for (int i = 1; i < n; ++i) {
        const bool lower = p[i] < min;
        min = lower ? p[i] : min;
        best = lower ? i : best;
    }
    return best;
}

} // namespace simd
} // namespace dmt

#endif // DMT_COMMON_SIMD_HH
