#include "ckks/chebyshev.h"

#include <cmath>

#include "common/bit_ops.h"
#include "common/check.h"
#include "math/mod_arith.h"

namespace bts {

ChebyshevSeries::ChebyshevSeries(std::vector<double> coeffs, double a,
                                 double b)
    : coeffs_(std::move(coeffs)), a_(a), b_(b)
{
    BTS_CHECK(!coeffs_.empty(), "empty series");
    BTS_CHECK(a < b, "invalid interval");
}

ChebyshevSeries
ChebyshevSeries::interpolate(const std::function<double(double)>& f, double a,
                             double b, int degree)
{
    BTS_CHECK(degree >= 0, "degree must be nonnegative");
    const int nodes = degree + 1;
    std::vector<double> samples(nodes);
    for (int k = 0; k < nodes; ++k) {
        const double theta = M_PI * (k + 0.5) / nodes;
        const double x = std::cos(theta);
        samples[k] = f(0.5 * (b - a) * x + 0.5 * (a + b));
    }
    std::vector<double> coeffs(nodes);
    for (int j = 0; j < nodes; ++j) {
        double acc = 0.0;
        for (int k = 0; k < nodes; ++k) {
            acc += samples[k] * std::cos(M_PI * j * (k + 0.5) / nodes);
        }
        coeffs[j] = 2.0 * acc / nodes;
    }
    coeffs[0] *= 0.5;
    return ChebyshevSeries(std::move(coeffs), a, b);
}

double
ChebyshevSeries::evaluate(double x) const
{
    // Clenshaw recurrence on the normalized argument.
    const double y = (2.0 * x - (a_ + b_)) / (b_ - a_);
    double b1 = 0.0, b2 = 0.0;
    for (int j = degree(); j >= 1; --j) {
        const double tmp = 2.0 * y * b1 - b2 + coeffs_[j];
        b2 = b1;
        b1 = tmp;
    }
    return y * b1 - b2 + coeffs_[0];
}

double
ChebyshevSeries::max_error(const std::function<double(double)>& f,
                           int samples) const
{
    double worst = 0.0;
    for (int i = 0; i <= samples; ++i) {
        const double x = a_ + (b_ - a_) * i / samples;
        worst = std::max(worst, std::abs(f(x) - evaluate(x)));
    }
    return worst;
}

void
chebyshev_divmod(const std::vector<double>& f, int g,
                 std::vector<double>& quotient, std::vector<double>& remainder)
{
    const int deg = static_cast<int>(f.size()) - 1;
    BTS_CHECK(g >= 1 && g <= deg, "divisor degree out of range");
    quotient.assign(deg - g + 1, 0.0);
    remainder = f;
    for (int j = deg; j > g; --j) {
        const double cj = remainder[j];
        if (cj == 0.0) continue;
        // T_g * (2 c_j T_{j-g}) = c_j T_j + c_j T_{|2g-j|}
        quotient[j - g] = 2.0 * cj;
        remainder[j] = 0.0;
        remainder[std::abs(2 * g - j)] -= cj;
    }
    quotient[0] = remainder[g];
    remainder[g] = 0.0;
    remainder.resize(g);
    if (remainder.empty()) remainder.assign(1, 0.0);
}

int
ChebyshevEvaluator::baby_step_count(int degree)
{
    // Power of two near sqrt(degree + 1).
    int m = 1;
    while (m * m < degree + 1) m <<= 1;
    return std::max(2, m);
}

int
ChebyshevEvaluator::depth(int degree)
{
    const int m = baby_step_count(degree);
    int d = log2_exact(static_cast<u64>(m)); // T_m depth
    int g = m;
    while (2 * g <= degree) {
        g *= 2;
        ++d; // each giant T_{2g} adds one squaring level
    }
    ++d; // final recombination products
    return d;
}

ChebyshevEvaluator::PowerBasis
ChebyshevEvaluator::build_power_basis(const Ciphertext& y, int degree,
                                      const EvalKey& mult_key) const
{
    const int m = baby_step_count(degree);
    int top = m;
    while (2 * top <= degree) top *= 2;

    PowerBasis basis;
    basis.m = m;
    basis.t.resize(top + 1);
    basis.have.assign(top + 1, false);
    basis.t[1] = y;
    basis.have[1] = true;

    // T_{2k} = 2 T_k^2 - 1 ; T_{2k+1} = 2 T_k T_{k+1} - T_1.
    // Scales are tracked exactly: the T_1 subtraction happens BEFORE the
    // rescale, on a copy of T_1 brought to the product's exact scale by
    // a free (rescale-less) constant multiplication.
    std::function<const Ciphertext&(int)> get =
        [&](int j) -> const Ciphertext& {
        BTS_ASSERT(j >= 1 && j <= top, "power index out of range");
        if (basis.have[j]) return basis.t[j];
        const int lo = j / 2;
        const int hi = j - lo;
        const Ciphertext& a = get(lo);
        const Ciphertext& b = get(hi);
        Ciphertext prod = eval_.mult(a, b, mult_key);
        // Double the VALUE without a level: ct + ct at unchanged scale.
        prod.b.add_inplace(prod.b);
        prod.a.add_inplace(prod.a);
        if (lo == hi) {
            // 2 T_k^2 - 1: the constant is subtracted after the rescale
            // (the raw double-width scale would overflow the 62-bit
            // constant encoder); add_const at the ciphertext's own scale
            // is exact up to one rounding of the constant.
            eval_.rescale_inplace(prod);
            eval_.add_const_inplace(prod, Complex(-1.0, 0.0));
            basis.t[j] = std::move(prod);
            basis.have[j] = true;
            return basis.t[j];
        } else {
            Ciphertext t1 = basis.t[1];
            eval_.drop_level_inplace(t1, prod.level);
            // Bring T_1 to the product's exact raw scale (free CMult).
            t1 = eval_.mult_const(t1, 1.0, prod.scale / t1.scale);
            t1.scale = prod.scale;
            prod.b.sub_inplace(t1.b);
            prod.a.sub_inplace(t1.a);
        }
        eval_.rescale_inplace(prod);
        basis.t[j] = std::move(prod);
        basis.have[j] = true;
        return basis.t[j];
    };

    for (int j = 2; j <= m; ++j) get(j);
    for (int g = 2 * m; g <= top; g *= 2) get(g);
    return basis;
}

int
ChebyshevEvaluator::level_of(const std::vector<double>& coeffs,
                             const PowerBasis& basis) const
{
    const int deg = static_cast<int>(coeffs.size()) - 1;
    if (deg < basis.m) {
        int lvl = basis.t[1].level;
        for (int j = 2; j <= deg; ++j) lvl = std::min(lvl, basis.t[j].level);
        return lvl - 1; // leaf spends one level on its single rescale
    }
    int g = basis.m;
    while (2 * g <= deg) g *= 2;
    std::vector<double> quotient, remainder;
    chebyshev_divmod(coeffs, g, quotient, remainder);
    const int lq = level_of(quotient, basis);
    return std::min(lq, basis.t[g].level) - 1; // product + rescale
}

Ciphertext
ChebyshevEvaluator::eval_recurse(const std::vector<double>& coeffs,
                                 const PowerBasis& basis,
                                 const EvalKey& mult_key,
                                 double target_scale) const
{
    const int deg = static_cast<int>(coeffs.size()) - 1;

    if (deg < basis.m) {
        // Leaf: sum_j c_j T_j with ONE rescale. An integer constant puts
        // each term at the raw scale target * q_{lvl+1}; a constant that
        // rounds to 0 adds exactly nothing, so its term is skipped.
        const int lvl = level_of(coeffs, basis);
        BTS_CHECK(lvl >= 0, "ran out of levels in Chebyshev leaf");
        const Ciphertext& t1 = basis.t[1];
        const std::vector<u64> primes(t1.b.primes().begin(),
                                      t1.b.primes().begin() + lvl + 2);
        const double raw = target_scale * static_cast<double>(primes.back());
        Ciphertext acc{RnsPoly(t1.b.degree(), primes, t1.b.domain()),
                       RnsPoly(t1.a.degree(), primes, t1.a.domain()), raw,
                       lvl + 1, t1.slots};
        std::vector<u64> scalars(primes.size());
        for (int j = 1; j <= deg; ++j) {
            const double scaled = coeffs[j] * (raw / basis.t[j].scale);
            BTS_CHECK(std::abs(scaled) < 0x1.0p62,
                      "constant overflows 62 bits");
            const i64 iv = static_cast<i64>(std::llround(scaled));
            if (iv == 0) continue;
            for (std::size_t i = 0; i < primes.size(); ++i) {
                scalars[i] = signed_to_mod(iv, primes[i]);
            }
            acc.b.add_mul_scalar_inplace(basis.t[j].b, scalars);
            acc.a.add_mul_scalar_inplace(basis.t[j].a, scalars);
        }
        eval_.rescale_inplace(acc);
        acc.scale = target_scale; // exact by construction (up to 1 ulp)
        eval_.add_const_inplace(acc, Complex(coeffs[0], 0.0));
        return acc;
    }

    // Find the largest giant power <= deg.
    int g = basis.m;
    while (2 * g <= deg) g *= 2;

    std::vector<double> quotient, remainder;
    chebyshev_divmod(coeffs, g, quotient, remainder);

    // Choose the quotient's target so that (q * T_g) rescaled lands
    // exactly on target_scale: s_q = target * q_dropped / s_g.
    const int lq = level_of(quotient, basis);
    const int prod_level = std::min(lq, basis.t[g].level);
    const u64 q_dropped = eval_.context().q_primes()[prod_level];
    const double s_g = basis.t[g].scale;
    const double s_q =
        target_scale * static_cast<double>(q_dropped) / s_g;

    Ciphertext q_ct = eval_recurse(quotient, basis, mult_key, s_q);
    Ciphertext prod = eval_.mult(q_ct, basis.t[g], mult_key);
    BTS_ASSERT(prod.level == prod_level, "level prediction mismatch");
    eval_.rescale_inplace(prod);
    prod.scale = target_scale; // exact by construction (up to 1 ulp)

    Ciphertext r_ct =
        eval_recurse(remainder, basis, mult_key, target_scale);
    eval_.drop_level_inplace(r_ct, std::min(r_ct.level, prod.level));
    eval_.drop_level_inplace(prod, r_ct.level);
    prod.b.add_inplace(r_ct.b);
    prod.a.add_inplace(r_ct.a);
    return prod;
}

Ciphertext
ChebyshevEvaluator::evaluate(const Ciphertext& ct,
                             const ChebyshevSeries& series,
                             const EvalKey& mult_key) const
{
    BTS_CHECK(series.degree() >= 1, "series must have degree >= 1");
    const double a = series.lower();
    const double b = series.upper();
    const double delta = eval_.context().delta();

    // Affine normalization y = (2x - (a+b)) / (b-a), one level.
    Ciphertext y = eval_.mult_const_to_scale(ct, 2.0 / (b - a), delta);
    if (a + b != 0.0) {
        eval_.add_const_inplace(y, Complex(-(a + b) / (b - a), 0.0));
    }

    const PowerBasis basis =
        build_power_basis(y, series.degree(), mult_key);
    return eval_recurse(series.coeffs(), basis, mult_key, delta);
}

} // namespace bts
