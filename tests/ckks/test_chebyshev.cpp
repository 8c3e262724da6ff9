#include "ckks/chebyshev.h"

#include <gtest/gtest.h>

#include <string>

#include "runtime/telemetry/trace.h"
#include "test_utils.h"

namespace bts {
namespace {

using testing::TestEnv;

TEST(ChebyshevSeries, InterpolatesSmoothFunctions)
{
    const auto exp_series = ChebyshevSeries::interpolate(
        [](double x) { return std::exp(x); }, -1, 1, 15);
    EXPECT_LT(exp_series.max_error([](double x) { return std::exp(x); }),
              1e-12);

    const auto sin_series = ChebyshevSeries::interpolate(
        [](double x) { return std::sin(x); }, -3, 3, 23);
    EXPECT_LT(sin_series.max_error([](double x) { return std::sin(x); }),
              1e-10);
}

TEST(ChebyshevSeries, ScaledSineForEvalMod)
{
    // The bootstrapping workhorse: sin(2 pi u)/(2 pi) over [-12, 12]
    // at degree 159 must be accurate to ~1e-9 — this pins the degree
    // budget the bootstrapper uses.
    const double k = 12.0;
    const auto series = ChebyshevSeries::interpolate(
        [](double u) { return std::sin(2 * M_PI * u) / (2 * M_PI); }, -k, k,
        159);
    EXPECT_LT(series.max_error([](double u) {
        return std::sin(2 * M_PI * u) / (2 * M_PI);
    }),
              1e-9);
}

TEST(ChebyshevSeries, LowDegreeSineIsInaccurate)
{
    // Sanity check of the degree requirement: degree 31 cannot capture
    // 24 periods.
    const auto series = ChebyshevSeries::interpolate(
        [](double u) { return std::sin(2 * M_PI * u) / (2 * M_PI); }, -12, 12,
        31);
    EXPECT_GT(series.max_error([](double u) {
        return std::sin(2 * M_PI * u) / (2 * M_PI);
    }),
              1e-3);
}

TEST(ChebyshevDivmod, ReconstructsOriginal)
{
    // f == q * T_g + r must hold as functions.
    Xoshiro256 rng(3);
    for (int deg : {8, 13, 21, 40}) {
        std::vector<double> f(deg + 1);
        for (auto& c : f) c = 2 * rng.uniform_real() - 1;
        for (int g : {4, 8}) {
            if (g > deg) continue;
            std::vector<double> q, r;
            chebyshev_divmod(f, g, q, r);
            EXPECT_LT(static_cast<int>(r.size()), g + 1);
            // Evaluate both sides on a grid via Clenshaw.
            const ChebyshevSeries sf(f, -1, 1), sq(q, -1, 1), sr(r, -1, 1);
            for (double x = -1; x <= 1; x += 0.05) {
                const double tg = std::cos(g * std::acos(std::min(
                                               1.0, std::max(-1.0, x))));
                EXPECT_NEAR(sf.evaluate(x),
                            sq.evaluate(x) * tg + sr.evaluate(x), 1e-9);
            }
        }
    }
}

TEST(ChebyshevEvaluator, DepthFormula)
{
    // degree < m: just baby steps; larger degrees add giant squarings.
    EXPECT_EQ(ChebyshevEvaluator::baby_step_count(15), 4);
    EXPECT_EQ(ChebyshevEvaluator::baby_step_count(31), 8);
    EXPECT_GE(ChebyshevEvaluator::depth(31), 4);
    EXPECT_LE(ChebyshevEvaluator::depth(31), 7);
    EXPECT_LE(ChebyshevEvaluator::depth(159), 9);
}

class HomomorphicChebyTest : public ::testing::TestWithParam<int>
{};

TEST_P(HomomorphicChebyTest, MatchesClenshaw)
{
    // Evaluate a Chebyshev series homomorphically and compare against
    // the numeric Clenshaw evaluation slot by slot.
    CkksParams params = testing::small_params();
    params.max_level = 8;
    auto& env = testing::cached_env("cheby", params);

    const int degree = GetParam();
    const auto series = ChebyshevSeries::interpolate(
        [](double x) { return 1.0 / (1.0 + std::exp(-4 * x)); }, -1, 1,
        degree);

    const std::size_t slots = 64;
    std::vector<Complex> z(slots);
    Xoshiro256 rng(degree);
    for (auto& v : z) v = Complex(2 * rng.uniform_real() - 1, 0);

    const ChebyshevEvaluator cheby(env.evaluator);
    const Ciphertext out =
        cheby.evaluate(env.encrypt(z), series, env.mult_key);
    const auto got = env.decrypt(out);
    for (std::size_t i = 0; i < slots; ++i) {
        EXPECT_NEAR(got[i].real(), series.evaluate(z[i].real()), 2e-3)
            << "slot " << i;
        EXPECT_NEAR(got[i].imag(), 0.0, 2e-3);
    }
}

INSTANTIATE_TEST_SUITE_P(Degrees, HomomorphicChebyTest,
                         ::testing::Values(7, 15, 31, 63));

TEST(ChebyshevEvaluator, AsymmetricInterval)
{
    CkksParams params = testing::small_params();
    params.max_level = 8;
    auto& env = testing::cached_env("cheby", params);

    const auto series = ChebyshevSeries::interpolate(
        [](double x) { return std::log(x); }, 1, 4, 15);

    const std::size_t slots = 32;
    std::vector<Complex> z(slots);
    Xoshiro256 rng(99);
    for (auto& v : z) v = Complex(1.0 + 3.0 * rng.uniform_real(), 0);

    const ChebyshevEvaluator cheby(env.evaluator);
    const Ciphertext out =
        cheby.evaluate(env.encrypt(z), series, env.mult_key);
    const auto got = env.decrypt(out);
    for (std::size_t i = 0; i < slots; ++i) {
        EXPECT_NEAR(got[i].real(), std::log(z[i].real()), 5e-3);
    }
}

/** The EvalMod instance: sin(2 pi u)/(2 pi) on [-18, 18] at degree 159
 *  on a small ring with just enough levels for the evaluation. */
struct EvalModSine
{
    static double
    f(double u)
    {
        return std::sin(2 * M_PI * u) / (2 * M_PI);
    }

    EvalModSine()
        : env(testing::cached_env("cheby_evalmod", [] {
              CkksParams p = testing::small_params();
              p.n = 1 << 8;
              p.max_level = 10;
              return p;
          }())),
          series(ChebyshevSeries::interpolate(f, -kRange, kRange, 159)),
          z(64)
    {
        Xoshiro256 rng(18);
        for (auto& v : z) {
            v = Complex(kRange * (2 * rng.uniform_real() - 1), 0);
        }
    }

    static constexpr double kRange = 18.0;
    TestEnv& env;
    ChebyshevSeries series;
    std::vector<Complex> z;
};

TEST(ChebyshevEvaluator, EvalModSineLandsAtDepthAndExactScale)
{
    EvalModSine s;
    const Ciphertext in = s.env.encrypt(s.z);
    const ChebyshevEvaluator cheby(s.env.evaluator);
    const Ciphertext out = cheby.evaluate(in, s.series, s.env.mult_key);

    EXPECT_EQ(out.level, in.level - (ChebyshevEvaluator::depth(159) + 1));
    EXPECT_EQ(out.scale, s.env.ctx.delta());
    // Worst slot measures ~5e-9 against Clenshaw at Delta = 2^40.
    const auto got = s.env.decrypt(out);
    for (std::size_t i = 0; i < s.z.size(); ++i) {
        EXPECT_NEAR(got[i].real(), s.series.evaluate(s.z[i].real()), 1e-7)
            << "slot " << i;
        EXPECT_NEAR(got[i].imag(), 0.0, 1e-7);
    }
}

TEST(ChebyshevEvaluator, OneRescalePerLeaf)
{
#if !defined(BTS_TELEMETRY)
    GTEST_SKIP() << "built without BTS_TELEMETRY";
#endif
    namespace tel = runtime::telemetry;
    EvalModSine s;
    const Ciphertext in = s.env.encrypt(s.z);
    const ChebyshevEvaluator cheby(s.env.evaluator);

    tel::set_enabled(0);
    tel::reset_trace();
    tel::set_enabled(static_cast<u32>(tel::Category::kEvaluator));
    cheby.evaluate(in, s.series, s.env.mult_key);
    tel::set_enabled(0);
    int rescales = 0;
    for (const tel::ThreadTrace& th : tel::collect_trace().threads) {
        for (const tel::TraceEvent& ev : th.events) {
            rescales += std::string(ev.name) == "rescale";
        }
    }
    tel::reset_trace();
    // Degree 159, m = 16: 15 baby-step and 3 giant-power products, 9
    // recombination products, 10 leaves and the affine normalization.
    EXPECT_EQ(rescales, 15 + 3 + 9 + 10 + 1);
}

TEST(ChebyshevEvaluator, ZeroTermSkipIsExact)
{
    // The odd sine's even coefficients are rounding noise (|c| ~ 1e-16):
    // their leaf constants round to 0, so evaluating them must give the
    // same residues as evaluating exact zeros in their place.
    EvalModSine s;
    std::vector<double> odd = s.series.coeffs();
    bool any_even_nonzero = false;
    for (std::size_t j = 0; j < odd.size(); j += 2) {
        any_even_nonzero = any_even_nonzero || odd[j] != 0.0;
        odd[j] = 0.0;
    }
    ASSERT_TRUE(any_even_nonzero) << "test needs inexact even terms";
    const ChebyshevSeries zeroed(odd, -EvalModSine::kRange,
                                 EvalModSine::kRange);

    const Ciphertext in = s.env.encrypt(s.z);
    const ChebyshevEvaluator cheby(s.env.evaluator);
    const Ciphertext a = cheby.evaluate(in, s.series, s.env.mult_key);
    const Ciphertext b = cheby.evaluate(in, zeroed, s.env.mult_key);
    EXPECT_TRUE(testing::ct_equal(a, b));
}

TEST(ChebyshevEvaluator, ConstantOnlyLeaf)
{
    // Degree 8 has m = 4 baby steps and one giant step T_8, so the
    // quotient leaf is the constant c_8 alone.
    CkksParams params = testing::small_params();
    params.max_level = 8;
    auto& env = testing::cached_env("cheby", params);
    ASSERT_EQ(ChebyshevEvaluator::baby_step_count(8), 4);
    const ChebyshevSeries series({0.25, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0, 0.0,
                                  0.5},
                                 -1, 1);

    const std::size_t slots = 32;
    std::vector<Complex> z(slots);
    Xoshiro256 rng(8);
    for (auto& v : z) v = Complex(2 * rng.uniform_real() - 1, 0);

    const ChebyshevEvaluator cheby(env.evaluator);
    const auto got =
        env.decrypt(cheby.evaluate(env.encrypt(z), series, env.mult_key));
    for (std::size_t i = 0; i < slots; ++i) {
        EXPECT_NEAR(got[i].real(), series.evaluate(z[i].real()), 1e-6)
            << "slot " << i;
    }
}

} // namespace
} // namespace bts
