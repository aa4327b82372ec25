// Fixture: raw-simd fires on vendor intrinsics and intrinsic headers
// in any file — x86 and NEON alike — while a suppression with a
// reason silences it.
#include <immintrin.h>  // want: raw-simd

unsigned long long
probe_x86(const unsigned long long *p)
{
    __m128i v = _mm_loadu_si128((const __m128i *)p);  // want: raw-simd
    __m256i w = _mm256_set1_epi64x(7);                // want: raw-simd
    (void)w;
    return (unsigned long long)_mm_cvtsi128_si32(v);  // want: raw-simd
}

unsigned long long
probe_neon(const unsigned long long *p)
{
    return vgetq_lane_u64(vld1q_u64(p), 0);  // want: raw-simd
}

unsigned long long
justified(const unsigned long long *p)
{
    // dmtlint: allow(raw-simd) -- fixture: exercising the engine
    // itself
    return (unsigned long long)_mm_cvtsi128_si32(_mm_setzero_si128()) + *p;
}
