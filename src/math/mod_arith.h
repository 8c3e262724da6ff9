/**
 * @file
 * 64-bit modular arithmetic.
 *
 * BTS's word size is 64 bits; modular-reduction units in the hardware use
 * Barrett reduction to bring 128-bit products back to the word size
 * (Section 5). This module provides the software equivalents: plain
 * 128-bit reduction, a Barrett reducer with precomputed constant, and
 * Shoup multiplication for the hot NTT path where one operand (the
 * twiddle factor) is fixed.
 *
 * Lazy (Harvey-style) domain: the NTT hot path keeps residues in
 * [0, 2q) or [0, 4q) between butterflies and defers the conditional
 * subtractions to one correction at the end of the chain. The *_lazy
 * primitives below implement that domain; they require q < 2^62 so that
 * 4q (and every intermediate sum) fits in a 64-bit word — enforced
 * globally by kMaxModulusBits.
 */
#pragma once

#include "common/check.h"
#include "common/types.h"

namespace bts {

/** @return (a + b) mod m; inputs must already be reduced (enforced in
 *  Debug builds — unreduced inputs are a caller bug, not a supported
 *  overflow mode). */
inline u64
add_mod(u64 a, u64 b, u64 m)
{
    BTS_DEBUG_ASSERT(a < m && b < m, "add_mod: unreduced input");
    const u64 s = a + b; // cannot wrap: a, b < m < 2^62
    return s >= m ? s - m : s;
}

/** @return (a - b) mod m; inputs must already be reduced (Debug-checked
 *  like add_mod). */
inline u64
sub_mod(u64 a, u64 b, u64 m)
{
    BTS_DEBUG_ASSERT(a < m && b < m, "sub_mod: unreduced input");
    return a >= b ? a - b : a + m - b;
}

// ----- lazy-domain primitives (Harvey butterflies) ----------------------

/** Unreduced sum: [0, 2q) + [0, 2q) -> [0, 4q). Caller tracks the
 *  domain; no reduction, no overflow for q < 2^62. */
inline u64
add_lazy(u64 a, u64 b)
{
    return a + b;
}

/** Shifted difference: a - b + 2q for a, b in [0, 2q) -> result in
 *  (0, 4q), never negative. */
inline u64
sub_lazy_2q(u64 a, u64 b, u64 two_q)
{
    return a + two_q - b;
}

/** One branchless conditional subtraction: [0, 4q) -> [0, 2q)
 *  (compiles to cmov / SIMD select, no data-dependent branch). */
inline u64
reduce_2q(u64 x, u64 two_q)
{
    return x - (x >= two_q ? two_q : 0);
}

/** Canonicalize a lazy residue: [0, 4q) -> [0, q) in two conditional
 *  subtractions. */
inline u64
reduce_4q_to_q(u64 x, u64 q)
{
    x = reduce_2q(x, 2 * q);
    return x >= q ? x - q : x;
}

/** @return (a * b) mod m via 128-bit intermediate. */
inline u64
mul_mod(u64 a, u64 b, u64 m)
{
    return static_cast<u64>((static_cast<u128>(a) * b) % m);
}

/** @return a^e mod m (binary exponentiation). */
u64 pow_mod(u64 a, u64 e, u64 m);

/** @return a^{-1} mod m; requires gcd(a, m) == 1. */
u64 inv_mod(u64 a, u64 m);

/** @return gcd(a, b). */
u64 gcd_u64(u64 a, u64 b);

/** Map a signed value into [0, m). */
inline u64
signed_to_mod(i64 v, u64 m)
{
    const i64 r = v % static_cast<i64>(m);
    return r < 0 ? static_cast<u64>(r + static_cast<i64>(m))
                 : static_cast<u64>(r);
}

/** Map a residue in [0, m) to its centered representative in (-m/2, m/2]. */
inline i64
mod_to_signed(u64 v, u64 m)
{
    return v > m / 2 ? static_cast<i64>(v) - static_cast<i64>(m)
                     : static_cast<i64>(v);
}

/**
 * Barrett reducer for a fixed modulus.
 *
 * Precomputes mu = floor(2^128 / m) as two 64-bit halves. reduce() is
 * exact for EVERY 128-bit value (see its proof) after at most one
 * conditional subtraction.
 */
class Barrett
{
  public:
    Barrett() = default;

    explicit Barrett(u64 modulus);

    u64 modulus() const { return m_; }

    /**
     * Reduce any 128-bit value v modulo m. Inline: it is the inner step
     * of every element-wise product, BConv sum and key-switch inner
     * product.
     *
     * Exact for all v < 2^128. Let qt = floor(v * mu / 2^128). Since
     * 2^128/m - 1 < mu <= 2^128/m, v/m - v/2^128 < v * mu / 2^128 <= v/m,
     * and v/2^128 < 1, so floor(v/m) - 1 <= qt <= floor(v/m): the true
     * remainder v - qt*m lies in [0, 2m). qt may exceed 64 bits (when
     * v >= m * 2^64), but the remainder is below 2m < 2^64, so it is
     * determined by v - qt*m mod 2^64 = v_lo - (qt mod 2^64) * m in
     * wrapping 64-bit arithmetic; the quotient below is formed mod 2^64
     * for exactly that reason.
     */
    u64
    reduce(u128 v) const
    {
        const u64 v_lo = static_cast<u64>(v);
        const u64 v_hi = static_cast<u64>(v >> 64);
        // v * mu >> 128 = v_hi*mu_hi + hi64(v_hi*mu_lo) + hi64(v_lo*mu_hi)
        //                 + the carry out of the middle column (mod 2^64).
        const u128 mid1 = static_cast<u128>(v_hi) * mu_lo_;
        const u128 mid2 = static_cast<u128>(v_lo) * mu_hi_;
        const u64 lo_hi =
            static_cast<u64>((static_cast<u128>(v_lo) * mu_lo_) >> 64);
        const u128 mid = static_cast<u128>(lo_hi) + static_cast<u64>(mid1) +
                         static_cast<u64>(mid2);
        const u64 q = v_hi * mu_hi_ + static_cast<u64>(mid1 >> 64) +
                      static_cast<u64>(mid2 >> 64) +
                      static_cast<u64>(mid >> 64);
        const u64 r = v_lo - q * m_; // exact: the true remainder is < 2m
        return r >= m_ ? r - m_ : r;
    }

    /** (a * b) mod m using the precomputed constant. */
    u64 mul(u64 a, u64 b) const { return reduce(static_cast<u128>(a) * b); }

  private:
    u64 m_ = 0;
    u64 mu_hi_ = 0; // floor(2^128 / m) high limb
    u64 mu_lo_ = 0; // floor(2^128 / m) low limb
};

/**
 * Shoup multiplication context: multiply by a fixed constant w modulo m
 * with a single 64x64 multiply-high and one correction, the standard
 * trick for NTT butterflies.
 */
struct ShoupMul
{
    u64 w = 0;       //!< the constant operand, reduced mod m
    u64 w_shoup = 0; //!< floor(w * 2^64 / m)

    ShoupMul() = default;

    /**
     * @p operand may be unreduced; it is reduced mod @p modulus here.
     * (An unreduced w would silently produce a wrong w_shoup: the
     * quotient estimate in mul() assumes w < m.)
     */
    ShoupMul(u64 operand, u64 modulus)
        : w(operand % modulus),
          w_shoup(static_cast<u64>((static_cast<u128>(w) << 64) / modulus))
    {}

    /** Build from an operand already reduced mod @p modulus, skipping
     *  the constructor's 64-bit remainder (the table-construction hot
     *  path derives every twiddle from a reduced power chain). */
    static ShoupMul
    from_reduced(u64 w, u64 modulus)
    {
        BTS_DEBUG_ASSERT(w < modulus, "from_reduced: unreduced operand");
        ShoupMul s;
        s.w = w;
        s.w_shoup =
            static_cast<u64>((static_cast<u128>(w) << 64) / modulus);
        return s;
    }

    /** @return (x * w) mod m, canonical in [0, m) for ANY 64-bit x (the
     *  quotient estimate only assumes w < m), so lazy-domain inputs are
     *  accepted. */
    u64
    mul(u64 x, u64 m) const
    {
        const u64 q = static_cast<u64>((static_cast<u128>(x) * w_shoup) >> 64);
        const u64 r = x * w - q * m;
        return r >= m ? r - m : r;
    }

    /** Lazy Shoup product: @return a value congruent to x * w mod m in
     *  [0, 2m), skipping the final conditional subtraction. Valid for
     *  any 64-bit x (in particular the [0, 4q) butterfly domain). */
    u64
    mul_lazy(u64 x, u64 m) const
    {
        const u64 q = static_cast<u64>((static_cast<u128>(x) * w_shoup) >> 64);
        return x * w - q * m;
    }
};

} // namespace bts
