#include "rns/base_conv.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/workspace.h"
#include "math/mod_arith.h"
#include "runtime/telemetry/trace.h"

namespace bts {

namespace {

/** Largest prime of a base. */
u64
max_prime(const RnsBase& base)
{
    u64 m = 0;
    for (const u64 p : base.primes()) m = std::max(m, p);
    return m;
}

/**
 * Terms y * h (y < q_max, h < p) that fit on top of a reduced partial
 * sum (< p) before the 128-bit accumulator could reach 2^128, the
 * bound of Barrett::reduce: p + K * q_max * p <= 2^128 - 1.
 */
std::size_t
terms_per_reduction(u64 q_max, u64 p)
{
    const u128 k = (~u128{0} - p) / (static_cast<u128>(q_max) * p);
    return static_cast<std::size_t>(std::clamp<u128>(
        k, 1, std::numeric_limits<std::size_t>::max()));
}

/** The IFMA MMAU keeps |source| lazy terms (each < 2p < 2^52) in a
 *  64-bit lane: at most 2^11 of them. */
constexpr std::size_t kIfmaMaxSources = std::size_t{1} << 11;

#if BTS_IFMA_COMPILED

/** Part 1 on [c0, c1): dst = src * q_hat_inv mod q, canonical. @return
 *  the first coefficient left to the scalar tail. */
BTS_IFMA_TARGET std::size_t
scale_ifma(const u64* src, u64* dst, std::size_t c0, std::size_t c1,
           const ShoupMul& s, u64 q)
{
    ifma::ZeroUpperOnExit clear_upper;
    const __m512i w = ifma::splat(s.w);
    const __m512i ws = ifma::splat(s.w_shoup >> 12);
    const __m512i vq = ifma::splat(q);
    const __m512i nq = ifma::splat(0 - q);
    std::size_t c = c0;
    for (; c + 8 <= c1; c += 8) {
        ifma::store(dst + c,
                    ifma::csub(ifma::shoup_lazy(ifma::load(src + c), w, ws,
                                                nq),
                               vq));
    }
    return c;
}

/**
 * Part 2 on [c0, c1) for one target prime p: the sum over source limbs
 * j of lazy Shoup products scaled_j * hat[j] (each in [0, 2p)), then
 * the ladder acc -= 2^k p if acc >= 2^k p for k = top..0, which takes
 * a sum below 2^(top+1) p to [0, p). @return the first coefficient
 * left to the scalar tail.
 */
BTS_IFMA_TARGET std::size_t
mmau_ifma(const u64* scaled, std::size_t n, std::size_t src_count,
          const ShoupMul* hat, u64 p, int top, u64* dst, std::size_t c0,
          std::size_t c1)
{
    ifma::ZeroUpperOnExit clear_upper;
    const __m512i np = ifma::splat(0 - p);
    std::size_t c = c0;
    for (; c + 16 <= c1; c += 16) {
        __m512i acc0 = _mm512_setzero_si512();
        __m512i acc1 = _mm512_setzero_si512();
        for (std::size_t j = 0; j < src_count; ++j) {
            const __m512i w = ifma::splat(hat[j].w);
            const __m512i ws = ifma::splat(hat[j].w_shoup >> 12);
            const u64* y = scaled + j * n + c;
            acc0 = _mm512_add_epi64(
                acc0, ifma::shoup_lazy(ifma::load(y), w, ws, np));
            acc1 = _mm512_add_epi64(
                acc1, ifma::shoup_lazy(ifma::load(y + 8), w, ws, np));
        }
        for (int k = top; k >= 0; --k) {
            const __m512i rung = ifma::splat(p << k);
            acc0 = ifma::csub(acc0, rung);
            acc1 = ifma::csub(acc1, rung);
        }
        ifma::store(dst + c, acc0);
        ifma::store(dst + c + 8, acc1);
    }
    return c;
}

#else // !BTS_IFMA_COMPILED: isa_ is never kIfma52 here.

std::size_t
scale_ifma(const u64*, u64*, std::size_t c0, std::size_t, const ShoupMul&,
           u64)
{
    return c0;
}

std::size_t
mmau_ifma(const u64*, std::size_t, std::size_t, const ShoupMul*, u64, int,
          u64*, std::size_t c0, std::size_t)
{
    return c0;
}

#endif // BTS_IFMA_COMPILED

KernelIsa
default_isa(const RnsBase& source, const RnsBase& target)
{
    if (source.size() > kIfmaMaxSources) return KernelIsa::kScalar;
    return dispatch_isa(std::max(max_prime(source), max_prime(target)));
}

} // namespace

BaseConverter::BaseConverter(const RnsBase& source, const RnsBase& target)
    : BaseConverter(source, target, default_isa(source, target))
{}

BaseConverter::BaseConverter(const RnsBase& source, const RnsBase& target,
                             KernelIsa isa)
    : source_(source), target_(target), isa_(isa)
{
    for (u64 p : target.primes()) {
        for (u64 q : source.primes()) {
            BTS_CHECK(p != q, "source/target bases must be disjoint");
        }
    }
    BTS_CHECK(isa == KernelIsa::kScalar ||
                  default_isa(source, target) == KernelIsa::kIfma52,
              "IFMA52 BConv needs CPU support, primes below 2^51 and at "
              "most 2^11 source primes");
    hat_inv_shoup_.resize(source.size());
    for (std::size_t j = 0; j < source.size(); ++j) {
        hat_inv_shoup_[j] = ShoupMul(source.hat_inv(j), source.prime(j));
    }
    const u64 q_max = max_prime(source);
    hat_mod_.assign(target.size(), std::vector<u64>(source.size()));
    target_barrett_.resize(target.size());
    reduce_every_.resize(target.size());
    for (std::size_t i = 0; i < target.size(); ++i) {
        const u64 p = target.prime(i);
        target_barrett_[i] = Barrett(p);
        reduce_every_[i] = terms_per_reduction(q_max, p);
        for (std::size_t j = 0; j < source.size(); ++j) {
            hat_mod_[i][j] = source.hat_mod(j, p);
        }
    }
    if (isa_ == KernelIsa::kIfma52) {
        hat_shoup_.resize(target.size() * source.size());
        for (std::size_t i = 0; i < target.size(); ++i) {
            for (std::size_t j = 0; j < source.size(); ++j) {
                hat_shoup_[i * source.size() + j] =
                    ShoupMul(hat_mod_[i][j], target.prime(i));
            }
        }
        // Smallest top with 2^top >= |source|: the lazy sum is below
        // |source| * 2p <= 2^(top+1) p.
        while ((std::size_t{1} << ladder_top_) < source.size()) {
            ++ladder_top_;
        }
    }
}

RnsPoly
BaseConverter::convert(const RnsPoly& input) const
{
    BTS_TRACE_SPAN_VAR(trace_span, kKernel, "bconv");
    trace_span.set_arg(static_cast<i64>(source_.size()));
    BTS_CHECK(input.domain() == Domain::kCoeff,
              "BConv operates in the coefficient domain");
    BTS_CHECK(input.num_primes() == source_.size(),
              "input must live exactly on the source base");
    const std::size_t n = input.degree();
    const bool vec = isa_ == KernelIsa::kIfma52;

    // Part 1 (ModMult in the BConvU): y_j = [x_j * q_hat_inv_j]_{q_j},
    // tiled over (source limb x coefficient block) into pooled flat
    // scratch (limb-major, like RnsPoly storage).
    for (std::size_t j = 0; j < source_.size(); ++j) {
        BTS_CHECK(input.prime(j) == source_.prime(j), "prime mismatch");
    }
    const std::size_t src_count = source_.size();
    Workspace scaled(src_count * n);
    u64* const scaled_base = scaled.data();
    parallel_for_2d(
        src_count, n,
        [&](std::size_t j, std::size_t c0, std::size_t c1) {
            const u64 q = source_.prime(j);
            const ShoupMul& s = hat_inv_shoup_[j];
            const u64* src = input.component(j).data();
            u64* dst = scaled_base + j * n;
            const std::size_t tail =
                vec ? scale_ifma(src, dst, c0, c1, s, q) : c0;
            for (std::size_t c = tail; c < c1; ++c) {
                dst[c] = s.mul(src[c], q);
            }
        });

    // Part 2 (MMAU): out_i = [ sum_j y_j * q_hat_j ]_{p_i}. The scalar
    // path accumulates exact 128-bit products and reduces every
    // reduce_every_[i] terms (derived from 2^128, Barrett::reduce's
    // bound). Each coefficient's sum is self-contained and both paths
    // end canonical, so neither the 2-D tiling nor the kernel split can
    // change the result. Part 2 writes every coefficient of every
    // target limb: the output can skip the zero-fill.
    RnsPoly out(n, target_.primes(), Domain::kCoeff, RnsPoly::Uninit{});
    parallel_for_2d(
        target_.size(), n,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const Barrett& barrett = target_barrett_[i];
            const std::size_t every = reduce_every_[i];
            u64* dst = out.component(i).data();
            const std::size_t tail =
                vec ? mmau_ifma(scaled_base, n, src_count,
                                hat_shoup_.data() + i * src_count,
                                target_.prime(i), ladder_top_, dst, c0, c1)
                    : c0;
            for (std::size_t c = tail; c < c1; ++c) {
                u128 acc = 0;
                std::size_t left = every;
                for (std::size_t j = 0; j < src_count; ++j) {
                    acc += static_cast<u128>(scaled_base[j * n + c]) *
                           hat_mod_[i][j];
                    if (--left == 0) {
                        acc = barrett.reduce(acc);
                        left = every;
                    }
                }
                dst[c] = barrett.reduce(acc);
            }
        });
    return out;
}

RnsPoly
BaseConverter::convert_grouped(const RnsPoly& input, int l_sub) const
{
    BTS_TRACE_SPAN_VAR(trace_span, kKernel, "bconv.grouped");
    trace_span.set_arg(static_cast<i64>(source_.size()));
    BTS_CHECK(l_sub >= 1, "l_sub must be positive");
    BTS_CHECK(input.domain() == Domain::kCoeff,
              "BConv operates in the coefficient domain");
    const std::size_t n = input.degree();
    const std::size_t src_count = source_.size();

    RnsPoly out(n, target_.primes(), Domain::kCoeff);
    // Outer sum of Eq. 11: process l_sub source primes at a time,
    // accumulating into the running partial sums (the scratchpad-resident
    // partial sums of the MMAU).
    for (std::size_t j0 = 0; j0 < src_count;
         j0 += static_cast<std::size_t>(l_sub)) {
        const std::size_t j1 =
            std::min(src_count, j0 + static_cast<std::size_t>(l_sub));
        // Target limbs and coefficients are independent within a group;
        // the group loop itself stays sequential (partial sums
        // accumulate in order).
        parallel_for_2d(
            target_.size(), n,
            [&](std::size_t i, std::size_t c0, std::size_t c1) {
                const Barrett& barrett = target_barrett_[i];
                const std::size_t every = reduce_every_[i];
                u64* dst = out.component(i).data();
                for (std::size_t c = c0; c < c1; ++c) {
                    u128 acc = dst[c];
                    for (std::size_t j = j0; j < j1; ++j) {
                        const u64 q = source_.prime(j);
                        const u64 y = hat_inv_shoup_[j].mul(
                            input.component(j)[c], q);
                        acc += static_cast<u128>(y) * hat_mod_[i][j];
                        // Same interval as convert(): acc < 2^128.
                        if ((j - j0 + 1) % every == 0) {
                            acc = barrett.reduce(acc);
                        }
                    }
                    dst[c] = barrett.reduce(acc);
                }
            });
    }
    return out;
}

} // namespace bts
