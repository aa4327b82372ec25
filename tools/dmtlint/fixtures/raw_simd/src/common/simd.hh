// Fixture: no file is exempt, the scan header included — vendor
// intrinsics in src/common/simd.hh fire raw-simd like anywhere else.
#ifndef DMT_COMMON_SIMD_HH
#define DMT_COMMON_SIMD_HH

#include <emmintrin.h>  // want: raw-simd

inline int
lanes()
{
    __m128i z = _mm_setzero_si128();  // want: raw-simd
    return _mm_cvtsi128_si32(z);      // want: raw-simd
}

#endif // DMT_COMMON_SIMD_HH
