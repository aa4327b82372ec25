/**
 * @file
 * Contract tests for the two key scans of common/simd.hh that every
 * TLB, cache and PWC probe runs: findLastEqU64 returns the LAST equal
 * index (or -1), minIndexU64 the FIRST minimum (ties to the lowest
 * index).
 *
 * The scans are inline header loops, so the code under test is
 * whatever the compiler makes of them in this translation unit. The
 * file is built three times (tests/CMakeLists.txt): as dmt_scan_tests
 * with the build's own flags; as dmt_scan_wide_tests (ctest prefix
 * wide/) at -O3 with the loop vectorizer on, at the build's ISA; and
 * on x86-64 as dmt_scan_avx2_tests (prefix avx2/) at -O3 -mavx2. The
 * contract must hold however the compiler vectorizes the loops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"

/**
 * The avx2/ build may emit AVX2 instructions anywhere in this file;
 * on a host whose CPU lacks the ISA its tests skip instead of dying
 * on SIGILL.
 */
#if defined(DMT_SCAN_TESTS_AVX2) && defined(__GNUC__)
#define DMT_SCAN_REQUIRE_CPU()                                        \
    if (!__builtin_cpu_supports("avx2"))                              \
    GTEST_SKIP() << "host CPU lacks AVX2; avx2/ build untestable"
#else
#define DMT_SCAN_REQUIRE_CPU() (void)0
#endif

namespace dmt
{
namespace
{

/** Every associativity the structures instantiate (TLB 4/8/12/16,
 *  cache 4/8/11/12/16, PWC 2/4/32) plus odd lengths around them. */
const int kScanLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                            11, 12, 13, 15, 16, 17, 24, 31, 32, 33};

constexpr std::uint64_t kSentinel = ~std::uint64_t{0};

/** Independent statement of findLastEqU64's contract. */
int
lastEqReference(const std::vector<std::uint64_t> &v, std::uint64_t key)
{
    const auto it = std::find(v.rbegin(), v.rend(), key);
    return it == v.rend() ? -1
                          : static_cast<int>(v.rend() - it) - 1;
}

/** Independent statement of minIndexU64's contract. */
int
firstMinReference(const std::vector<std::uint64_t> &v)
{
    return static_cast<int>(std::min_element(v.begin(), v.end()) -
                            v.begin());
}

TEST(SimdFindLastEq, ExhaustiveSingleMatchEveryPosition)
{
    DMT_SCAN_REQUIRE_CPU();
    for (int n : kScanLengths) {
        std::vector<std::uint64_t> keys(static_cast<std::size_t>(n),
                                        0x1111);
        EXPECT_EQ(simd::findLastEqU64(keys.data(), n, 0x2222), -1);
        for (int pos = 0; pos < n; ++pos) {
            keys.assign(static_cast<std::size_t>(n), 0x1111);
            keys[static_cast<std::size_t>(pos)] = 0x2222;
            EXPECT_EQ(simd::findLastEqU64(keys.data(), n, 0x2222), pos)
                << "n=" << n << " pos=" << pos;
        }
    }
}

TEST(SimdFindLastEq, DuplicateMatchesLastWins)
{
    DMT_SCAN_REQUIRE_CPU();
    for (int n : kScanLengths) {
        if (n < 2)
            continue;
        std::vector<std::uint64_t> keys;
        for (int a = 0; a < n; ++a) {
            for (int b = a + 1; b < n; ++b) {
                keys.assign(static_cast<std::size_t>(n), 0);
                keys[static_cast<std::size_t>(a)] = 7;
                keys[static_cast<std::size_t>(b)] = 7;
                EXPECT_EQ(simd::findLastEqU64(keys.data(), n, 7), b)
                    << "n=" << n << " a=" << a << " b=" << b;
            }
        }
        keys.assign(static_cast<std::size_t>(n), 7);
        EXPECT_EQ(simd::findLastEqU64(keys.data(), n, 7), n - 1);
    }
}

TEST(SimdFindLastEq, SentinelAndHalfWordEdges)
{
    DMT_SCAN_REQUIRE_CPU();
    // Keys equal to the probe in one 32-bit half only are no match;
    // probing for the invalid-way sentinel (~0) is well-defined too.
    const std::uint64_t key = 0x00000001'00000002ull;
    const std::uint64_t lowHalfOnly = 0xdeadbeef'00000002ull;
    const std::uint64_t highHalfOnly = 0x00000001'deadbeefull;
    for (int n : kScanLengths) {
        if (n == 0)
            continue;
        std::vector<std::uint64_t> keys(static_cast<std::size_t>(n),
                                        lowHalfOnly);
        for (std::size_t i = 1; i < keys.size(); i += 2)
            keys[i] = highHalfOnly;
        EXPECT_EQ(simd::findLastEqU64(keys.data(), n, key), -1);
        keys.back() = kSentinel;
        EXPECT_EQ(simd::findLastEqU64(keys.data(), n, kSentinel), n - 1);
    }
}

TEST(SimdFindLastEq, RandomizedSweepAgainstReference)
{
    DMT_SCAN_REQUIRE_CPU();
    Rng rng(20260808);
    for (int iter = 0; iter < 20000; ++iter) {
        const int n = static_cast<int>(rng.below(34));
        std::vector<std::uint64_t> keys(static_cast<std::size_t>(n));
        // Few distinct values, so matches and duplicates are common.
        for (auto &k : keys) {
            const std::uint64_t pick = rng.below(8);
            k = pick == 0 ? kSentinel
                : pick == 1 ? kSentinel - 1
                            : rng.below(4);
        }
        const std::uint64_t probe =
            rng.below(2) ? rng.below(4) : kSentinel;
        EXPECT_EQ(simd::findLastEqU64(keys.data(), n, probe),
                  lastEqReference(keys, probe))
            << "iter=" << iter;
    }
}

TEST(SimdFindLastEq, UnalignedBasePointers)
{
    DMT_SCAN_REQUIRE_CPU();
    std::vector<std::uint64_t> buf(64, 5);
    buf[40] = 9;
    for (int off = 0; off < 32; ++off) {
        for (int n : {1, 2, 3, 4, 8, 16, 32}) {
            const std::vector<std::uint64_t> window(
                buf.begin() + off, buf.begin() + off + n);
            EXPECT_EQ(simd::findLastEqU64(buf.data() + off, n, 9),
                      lastEqReference(window, 9))
                << "off=" << off << " n=" << n;
        }
    }
}

TEST(SimdMinIndex, ExhaustiveMinimumEveryPosition)
{
    DMT_SCAN_REQUIRE_CPU();
    for (int n : kScanLengths) {
        if (n == 0)
            continue;  // the contract requires n >= 1
        std::vector<std::uint64_t> stamps;
        for (int pos = 0; pos < n; ++pos) {
            stamps.assign(static_cast<std::size_t>(n), 100);
            stamps[static_cast<std::size_t>(pos)] = 3;
            EXPECT_EQ(simd::minIndexU64(stamps.data(), n), pos)
                << "n=" << n << " pos=" << pos;
        }
    }
}

TEST(SimdMinIndex, TiesPickTheLowestIndex)
{
    DMT_SCAN_REQUIRE_CPU();
    for (int n : kScanLengths) {
        if (n < 2)
            continue;
        std::vector<std::uint64_t> stamps;
        for (int a = 0; a < n; ++a) {
            for (int b = a + 1; b < n; ++b) {
                stamps.assign(static_cast<std::size_t>(n), 50);
                stamps[static_cast<std::size_t>(a)] = 2;
                stamps[static_cast<std::size_t>(b)] = 2;
                EXPECT_EQ(simd::minIndexU64(stamps.data(), n), a)
                    << "n=" << n << " a=" << a << " b=" << b;
            }
        }
        stamps.assign(static_cast<std::size_t>(n), 7);
        EXPECT_EQ(simd::minIndexU64(stamps.data(), n), 0);
    }
}

TEST(SimdMinIndex, InvalidWayStampsAndExtremeValues)
{
    DMT_SCAN_REQUIRE_CPU();
    // Invalid ways keep stamp 0, below every valid stamp: the first
    // zero wins.
    for (int n : kScanLengths) {
        if (n < 3)
            continue;
        std::vector<std::uint64_t> stamps(static_cast<std::size_t>(n),
                                          1000);
        stamps[static_cast<std::size_t>(n / 2)] = 0;
        stamps[static_cast<std::size_t>(n - 1)] = 0;
        EXPECT_EQ(simd::minIndexU64(stamps.data(), n), n / 2);
    }
    // Stamps either side of 2^63 compare as unsigned.
    const std::vector<std::uint64_t> stamps = {
        0x8000000000000000ull, 0x7fffffffffffffffull,
        0xffffffffffffffffull, 0x8000000000000001ull,
        0x0000000000000001ull, 0xfffffffffffffffeull,
        0x7ffffffffffffffeull, 0x8000000000000000ull,
    };
    EXPECT_EQ(simd::minIndexU64(stamps.data(),
                                static_cast<int>(stamps.size())),
              4);
}

TEST(SimdMinIndex, RandomizedSweepAgainstReference)
{
    DMT_SCAN_REQUIRE_CPU();
    Rng rng(424242);
    for (int iter = 0; iter < 20000; ++iter) {
        const int n = 1 + static_cast<int>(rng.below(33));
        std::vector<std::uint64_t> stamps(static_cast<std::size_t>(n));
        // Half the draws tie-prone, half over the full 64-bit range.
        const bool tieProne = rng.below(2) != 0;
        for (auto &s : stamps)
            s = tieProne ? rng.below(4) : rng.next();
        EXPECT_EQ(simd::minIndexU64(stamps.data(), n),
                  firstMinReference(stamps))
            << "iter=" << iter << " n=" << n;
    }
}

} // namespace
} // namespace dmt
