#include "ckks/linear_transform.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/bit_ops.h"
#include "common/check.h"
#include "math/mod_arith.h"

namespace bts {

namespace {

/** Extract the cyclic diagonals of a dense square matrix (the
 *  delegated-to constructor drops the near-zero ones). */
DiagonalMap
extract_diagonals(const std::vector<std::vector<Complex>>& matrix)
{
    const std::size_t n = matrix.size();
    for (const auto& row : matrix) {
        BTS_CHECK(row.size() == n, "matrix must be square");
    }
    DiagonalMap diagonals;
    for (std::size_t d = 0; d < n; ++d) {
        std::vector<Complex> diag(n);
        for (std::size_t j = 0; j < n; ++j) {
            diag[j] = matrix[j][(j + d) % n];
        }
        diagonals.emplace(static_cast<int>(d), std::move(diag));
    }
    return diagonals;
}

} // namespace

LinearTransform::LinearTransform(
    const CkksContext& ctx, const CkksEncoder& encoder,
    const std::vector<std::vector<Complex>>& matrix, int level,
    double bsgs_ratio)
    : LinearTransform(ctx, encoder, matrix.size(),
                      extract_diagonals(matrix), level, bsgs_ratio)
{}

LinearTransform::LinearTransform(const CkksContext& ctx,
                                 const CkksEncoder& encoder, std::size_t n,
                                 const DiagonalMap& diagonals, int level,
                                 double bsgs_ratio)
    : ctx_(ctx), encoder_(encoder), n_(n), level_(level)
{
    BTS_CHECK(is_power_of_two(n_), "matrix dimension must be a power of two");
    BTS_CHECK(level >= 1, "transform needs one level headroom");

    std::vector<int> shifts;
    std::vector<const std::vector<Complex>*> diags;
    for (const auto& [d, values] : diagonals) {
        BTS_CHECK(d >= 0 && d < static_cast<int>(n_),
                  "diagonal shift out of range");
        BTS_CHECK(values.size() == n_, "diagonal length must equal n");
        bool nonzero = false;
        for (const Complex& v : values) {
            if (std::abs(v) > 1e-14) {
                nonzero = true;
                break;
            }
        }
        if (!nonzero) continue;
        shifts.push_back(d);
        diags.push_back(&values);
    }
    BTS_CHECK(!shifts.empty(), "matrix is identically zero");

    // Giant-step width: ~stride * sqrt(#diagonals * ratio), a power of
    // two. `stride` is the gcd of the shifts — radix DFT stages have
    // shifts that are all multiples of the butterfly span, and a
    // stride-blind sqrt(#diags) width would leave every baby step empty
    // while each diagonal occupies its own giant step.
    u64 stride = 0;
    for (int d : shifts) {
        if (d != 0) stride = gcd_u64(stride, static_cast<u64>(d));
    }
    if (stride == 0) stride = 1;
    const double target =
        std::sqrt(static_cast<double>(diags.size()) * bsgs_ratio);
    g_ = static_cast<int>(stride);
    while (g_ * 2 <= static_cast<double>(stride) * target &&
           g_ * 2 < static_cast<int>(n_)) {
        g_ *= 2;
    }

    // Diagonal plaintexts are encoded once, at the level's top prime, so
    // the final rescale of apply() restores the input scale exactly.
    const double pt_scale = static_cast<double>(ctx_.q_primes()[level_]);

    std::set<int> rotations;
    for (std::size_t idx = 0; idx < shifts.size(); ++idx) {
        Diag entry;
        entry.shift = shifts[idx];
        entry.baby = shifts[idx] % g_;
        entry.giant = shifts[idx] / g_;
        // Pre-rotate by -g*i so the giant-step rotation distributes over
        // the inner sum.
        const int gi = entry.giant * g_;
        std::vector<Complex> rotated(n_);
        for (std::size_t j = 0; j < n_; ++j) {
            rotated[j] = (*diags[idx])[(j + n_ - gi % n_) % n_];
        }
        entry.plaintext = encoder_.encode(rotated, pt_scale, level_);
        if (entry.baby != 0) rotations.insert(entry.baby);
        if (gi != 0) rotations.insert(gi % static_cast<int>(n_));
        diag_values_.push_back(std::move(entry));
    }
    required_rotations_.assign(rotations.begin(), rotations.end());
}

Ciphertext
LinearTransform::apply(const Evaluator& eval, const Ciphertext& ct,
                       const RotationKeys& rot_keys) const
{
    BTS_CHECK(ct.slots == n_, "slot count does not match the transform");
    Ciphertext input = ct;
    BTS_CHECK(input.level >= level_,
              "ciphertext level below the transform's compiled level");
    if (input.level > level_) eval.drop_level_inplace(input, level_);

    // Baby-step rotations of the input, hoisted: all amounts share a
    // single decompose+ModUp of the input's mask polynomial.
    std::vector<int> baby_amounts;
    for (const auto& d : diag_values_) {
        if (d.baby != 0 &&
            std::find(baby_amounts.begin(), baby_amounts.end(), d.baby) ==
                baby_amounts.end()) {
            baby_amounts.push_back(d.baby);
        }
    }
    std::vector<Ciphertext> baby(g_);
    baby[0] = input;
    {
        auto rotated = eval.rotate_hoisted(input, baby_amounts, rot_keys);
        for (std::size_t i = 0; i < baby_amounts.size(); ++i) {
            baby[baby_amounts[i]] = std::move(rotated[i]);
        }
    }

    // Giant steps: each inner sum sum_j pt_j (*) baby_j is one fused
    // multiply-accumulate pass over both ciphertext polynomials (lazy
    // 128-bit sums, one reduction per output, plaintexts and babies
    // read in place), then one rotation.
    const int max_giant = diag_values_.back().giant;
    const auto q_primes = ctx_.level_primes(level_);
    const std::size_t limbs = q_primes.size();
    const double pt_scale = diag_values_.front().plaintext.scale;
    std::vector<MacTerm> terms;
    Ciphertext acc;
    bool acc_set = false;
    for (int i = 0; i <= max_giant; ++i) {
        std::vector<const Diag*> group;
        for (const auto& d : diag_values_) {
            if (d.giant == i) group.push_back(&d);
        }
        if (group.empty()) continue;
        // terms[limb * |group| + t], the layout fused_mac2 expects.
        terms.resize(limbs * group.size());
        for (std::size_t l = 0; l < limbs; ++l) {
            for (std::size_t t = 0; t < group.size(); ++t) {
                const Ciphertext& b = baby[group[t]->baby];
                terms[l * group.size() + t] = {
                    group[t]->plaintext.poly.component(l).data(),
                    b.b.component(l).data(), b.a.component(l).data()};
            }
        }
        Ciphertext inner;
        inner.b =
            RnsPoly(ctx_.n(), q_primes, Domain::kNtt, RnsPoly::Uninit{});
        inner.a =
            RnsPoly(ctx_.n(), q_primes, Domain::kNtt, RnsPoly::Uninit{});
        fused_mac2(group.size(), terms, nullptr, inner.b, inner.a);
        inner.scale = input.scale * pt_scale;
        inner.level = level_;
        inner.slots = input.slots;

        const int gi = (i * g_) % static_cast<int>(n_);
        if (gi != 0) {
            const auto it = rot_keys.find(gi);
            BTS_CHECK(it != rot_keys.end(), "missing rotation key " << gi);
            inner = eval.rotate(inner, gi, it->second);
        }
        if (!acc_set) {
            acc = std::move(inner);
            acc_set = true;
        } else {
            acc.b.add_inplace(inner.b);
            acc.a.add_inplace(inner.a);
        }
    }
    BTS_ASSERT(acc_set, "linear transform accumulated nothing");

    eval.rescale_inplace(acc);
    acc.scale = ct.scale; // exact: plaintexts were encoded at the top prime
    return acc;
}

std::vector<std::vector<Complex>>
scaled_identity_matrix(std::size_t n, Complex s)
{
    std::vector<std::vector<Complex>> m(n, std::vector<Complex>(n, 0));
    for (std::size_t i = 0; i < n; ++i) m[i][i] = s;
    return m;
}

} // namespace bts
