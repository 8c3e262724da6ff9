#include "rns/base_conv.h"

#include "common/check.h"
#include "common/parallel.h"
#include "common/workspace.h"
#include "math/mod_arith.h"
#include "runtime/telemetry/trace.h"

namespace bts {

BaseConverter::BaseConverter(const RnsBase& source, const RnsBase& target)
    : source_(source), target_(target)
{
    for (u64 p : target.primes()) {
        for (u64 q : source.primes()) {
            BTS_CHECK(p != q, "source/target bases must be disjoint");
        }
    }
    hat_inv_shoup_.resize(source.size());
    for (std::size_t j = 0; j < source.size(); ++j) {
        hat_inv_shoup_[j] = ShoupMul(source.hat_inv(j), source.prime(j));
    }
    hat_mod_.assign(target.size(), std::vector<u64>(source.size()));
    target_barrett_.resize(target.size());
    for (std::size_t i = 0; i < target.size(); ++i) {
        target_barrett_[i] = Barrett(target.prime(i));
        for (std::size_t j = 0; j < source.size(); ++j) {
            hat_mod_[i][j] = source.hat_mod(j, target.prime(i));
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
            for (std::size_t c = c0; c < c1; ++c) {
                dst[c] = s.mul(src[c], q);
            }
        });

    // Part 2 (MMAU): out_i = [ sum_j y_j * q_hat_j ]_{p_i}, accumulated
    // lazily in 128 bits. Barrett::reduce needs acc < p_i * 2^64: with
    // y_j < q_j < 2^61 and q_hat_j < p_i, eight terms on top of a
    // reduced partial sum stay below it, so reduce every 8 terms.
    // Each coefficient's sum is self-contained, so the 2-D tiling
    // cannot change the result.
    // Part 2 writes every coefficient of every target limb: the
    // output can skip the zero-fill.
    RnsPoly out(n, target_.primes(), Domain::kCoeff, RnsPoly::Uninit{});
    parallel_for_2d(
        target_.size(), n,
        [&](std::size_t i, std::size_t c0, std::size_t c1) {
            const Barrett& barrett = target_barrett_[i];
            u64* dst = out.component(i).data();
            for (std::size_t c = c0; c < c1; ++c) {
                u128 acc = 0;
                for (std::size_t j = 0; j < src_count; ++j) {
                    acc += static_cast<u128>(scaled_base[j * n + c]) *
                           hat_mod_[i][j];
                    if ((j & 7) == 7) acc = barrett.reduce(acc);
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
                u64* dst = out.component(i).data();
                for (std::size_t c = c0; c < c1; ++c) {
                    u128 acc = dst[c];
                    for (std::size_t j = j0; j < j1; ++j) {
                        const u64 q = source_.prime(j);
                        const u64 y = hat_inv_shoup_[j].mul(
                            input.component(j)[c], q);
                        acc += static_cast<u128>(y) * hat_mod_[i][j];
                        // Same bound as convert(): keep acc < p * 2^64.
                        if (((j - j0) & 7) == 7) acc = barrett.reduce(acc);
                    }
                    dst[c] = barrett.reduce(acc);
                }
            });
    }
    return out;
}

} // namespace bts
