/**
 * @file
 * Run-time kernel dispatch and the 52-bit Shoup arithmetic shared by the
 * AVX-512 IFMA52 NTT and BConv kernels (the vector counterpart of BTS's
 * per-PE NTT unit and BConvU, Section 5; the technique follows Intel
 * HEXL, Boemer et al., WAHC 2021).
 *
 * IFMA52 multiplies the low 52 bits of two 64-bit lanes into a 104-bit
 * product and adds its low or high 52 bits to a 64-bit accumulator
 * (vpmadd52luq / vpmadd52huq). A lazy Shoup product by a fixed w < q
 * then costs three such instructions:
 *
 *   Q = floor(x * w' / 2^52),  w' = floor(w * 2^52 / q) = w_shoup >> 12,
 *   r = (x*w - Q*q) mod 2^52.
 *
 * For x < 2^52, x*w'/2^52 > x*w/q - 1, so the true x*w - Q*q lies in
 * [0, 2q); with q < 2^51 it is below 2^52 and the mod-2^52 result is
 * exact. That is the dispatch rule: a kernel runs IFMA only when the
 * CPU has it AND every modulus it touches is below 2^51 (the NTT prime
 * generator alternates around 2^bits, so half of every "50-bit" request
 * lands in [2^50, 2^51) — HEXL's 2^50 limit would exclude them). The
 * multiplicand x must stay below 2q (< 2^52): callers reduce lazy
 * operands first.
 *
 * The choice is made at run time (cpuid via __builtin_cpu_supports),
 * never at build time: the kernels carry a per-function target
 * attribute, so the library builds with the default ISA baseline and
 * runs anywhere.
 */
#pragma once

#include "common/types.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define BTS_IFMA_COMPILED 1
#include <immintrin.h>
/** Target attribute of every function that issues AVX-512/IFMA52. */
#define BTS_IFMA_TARGET __attribute__((target("avx512f,avx512ifma")))
#else
#define BTS_IFMA_COMPILED 0
#endif

namespace bts {

/** The kernel family an NttTables or BaseConverter runs. */
enum class KernelIsa
{
    kScalar, //!< portable 64-bit Shoup/Barrett kernels
    kIfma52, //!< AVX-512 IFMA52, 8 lanes of 52-bit Shoup products
};

/** Moduli must lie below 2^kIfmaMaxModulusBits for the IFMA kernels. */
inline constexpr int kIfmaMaxModulusBits = 51;

/** Whether this CPU (and OS) supports AVX-512F + IFMA52. Cached. */
bool cpu_has_ifma();

/** The kernel for moduli up to @p max_modulus: kIfma52 when the CPU
 *  has IFMA52 and max_modulus < 2^51, else kScalar. */
KernelIsa dispatch_isa(u64 max_modulus);

/** Name of the kernel family this host dispatches for IFMA-eligible
 *  moduli: "avx512ifma" or "scalar". */
const char* kernel_isa();

inline constexpr u64 kMask52 = (u64{1} << 52) - 1;

/**
 * Scalar emulation of the IFMA lazy Shoup product: x*w mod q in [0, 2q),
 * bit-identical to the vector form. Requires x < 2^52, q < 2^51, w < q
 * and @p w_shoup52 = floor(w * 2^52 / q). The IFMA kernels run it on
 * their sub-vector tails, so any split of the work computes the same
 * bits.
 */
inline u64
shoup52_lazy(u64 x, u64 w, u64 w_shoup52, u64 q)
{
    const u64 quot =
        static_cast<u64>((static_cast<u128>(x) * w_shoup52) >> 52);
    return (x * w - quot * q) & kMask52;
}

#if BTS_IFMA_COMPILED
namespace ifma {

/**
 * Issues vzeroupper when the kernel that declares it returns. Without it
 * the 512-bit registers can stay "dirty" after a kernel, and every later
 * legacy-SSE instruction in the (default-ISA) rest of the library pays
 * a false dependency on their upper halves: on a 4-vCPU Sapphire Rapids
 * host the encoder's scalar double-precision code ran 10x slower after
 * the first IFMA call, which doubled Bootstrapper construction time.
 */
struct ZeroUpperOnExit
{
    BTS_IFMA_TARGET ~ZeroUpperOnExit() { _mm256_zeroupper(); }
};

/** x - (x >= b ? b : 0) per lane (unsigned). The compare-mask form:
 *  GCC 12 reports a false -Wmaybe-uninitialized inside
 *  _mm512_min_epu64. */
BTS_IFMA_TARGET inline __m512i
csub(__m512i x, __m512i b)
{
    return _mm512_mask_sub_epi64(x, _mm512_cmpge_epu64_mask(x, b), x, b);
}

/** Lazy Shoup product in [0, 2q), lane-wise shoup52_lazy(); @p neg_q
 *  holds -q (only its low 52 bits are read). */
BTS_IFMA_TARGET inline __m512i
shoup_lazy(__m512i x, __m512i w, __m512i w_shoup52, __m512i neg_q)
{
    const __m512i zero = _mm512_setzero_si512();
    const __m512i quot = _mm512_madd52hi_epu64(zero, x, w_shoup52);
    const __m512i xw = _mm512_madd52lo_epu64(zero, x, w);
    return _mm512_and_si512(_mm512_madd52lo_epu64(xw, quot, neg_q),
                            _mm512_set1_epi64(static_cast<long long>(kMask52)));
}

BTS_IFMA_TARGET inline __m512i
load(const u64* p)
{
    return _mm512_loadu_si512(p);
}

BTS_IFMA_TARGET inline void
store(u64* p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

BTS_IFMA_TARGET inline __m512i
splat(u64 v)
{
    return _mm512_set1_epi64(static_cast<long long>(v));
}

} // namespace ifma
#endif // BTS_IFMA_COMPILED

} // namespace bts
