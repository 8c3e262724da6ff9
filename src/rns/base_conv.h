/**
 * @file
 * Fast (approximate) RNS base conversion — BConv, Eq. 9 of the paper.
 *
 * BConv maps residues over a source base C to residues over a disjoint
 * target base B without leaving RNS:
 *
 *   BConv_{C->B}(x) = { [ sum_j [x_j * q_hat_j^{-1}]_{q_j} * q_hat_j ]_p }
 *
 * The sum may exceed Q by a small multiple (the classic "approximate"
 * base conversion); CKKS noise analysis absorbs that q-overflow. The
 * two-part structure (per-source-prime scaling, then a coefficient-wise
 * multiply-accumulate across source primes) is exactly what the BTS
 * BConvU implements in hardware (ModMult + MMAU, Section 5.2).
 *
 * Kernels are picked at run time (math/ifma.h). When the CPU has AVX-512
 * IFMA52 and every source and target prime is below 2^51, both parts run
 * 8 coefficients per vector: the scaling as a 52-bit Shoup product plus
 * one conditional subtraction, the MMAU as a sum of 52-bit Shoup
 * products by q_hat_j mod p_i (each in [0, 2p_i)) brought to [0, p_i)
 * by a ladder of conditional subtractions of 2^k * p_i. Otherwise the
 * scalar path accumulates exact 128-bit products with Barrett
 * reductions. Both produce the canonical residue, so the output is
 * bit-identical across kernels.
 */
#pragma once

#include <vector>

#include "common/types.h"
#include "math/ifma.h"
#include "math/mod_arith.h"
#include "rns/rns_base.h"
#include "rns/rns_poly.h"

namespace bts {

/** Precomputed tables for converting from a fixed source base. */
class BaseConverter
{
  public:
    /**
     * Build a converter from @p source to @p target (bases must be
     * disjoint). Tables: q_hat_inv_j (first part, per source prime) and
     * q_hat_j mod p_i (second part, source x target matrix).
     */
    BaseConverter(const RnsBase& source, const RnsBase& target);

    /** As above with an explicit kernel for convert(); kIfma52 requires
     *  the CPU feature and every prime below 2^51. */
    BaseConverter(const RnsBase& source, const RnsBase& target,
                  KernelIsa isa);

    const RnsBase& source() const { return source_; }
    const RnsBase& target() const { return target_; }
    KernelIsa isa() const { return isa_; }

    /**
     * Convert polynomial @p input (coefficient domain, canonical
     * residues over exactly the source primes) to the target base.
     */
    RnsPoly convert(const RnsPoly& input) const;

    /**
     * Convert, emulating the BTS l_sub-grouped accumulation (Eq. 11):
     * mathematically identical to convert(); exercised by tests to pin
     * the equivalence the hardware overlap relies on.
     */
    RnsPoly convert_grouped(const RnsPoly& input, int l_sub) const;

  private:
    RnsBase source_;
    RnsBase target_;
    std::vector<std::vector<u64>> hat_mod_; // [target i][source j]
    // Hot-path reducers, built once per converter so the tiled loops
    // never reconstruct them (each costs a 128-bit division). The
    // Shoup contexts carry q_hat_inv_j themselves (member w).
    std::vector<ShoupMul> hat_inv_shoup_;   // per source prime j
    std::vector<Barrett> target_barrett_;   // per target prime i
    // Scalar MMAU: terms accumulated between Barrett reductions, per
    // target prime i (the 128-bit accumulator must not wrap).
    std::vector<std::size_t> reduce_every_;
    KernelIsa isa_;
    // IFMA MMAU: Shoup contexts of q_hat_j mod p_i, [i * |source| + j],
    // and the top rung k of the 2^k * p_i subtraction ladder.
    std::vector<ShoupMul> hat_shoup_;
    int ladder_top_ = 0;
};

} // namespace bts
