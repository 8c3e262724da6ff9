/**
 * @file
 * Differential suite pinning the AVX-512 IFMA52 NTT and BConv kernels to
 * the portable scalar kernels.
 *
 * Covers: every NTT size from 2^3 (all butterflies in the scalar
 * emulation) through 2^16, so the in-register t = 1, 2, 4 stages and
 * the t >= 8 stages both run; the primes at the edges of the 52-bit
 * arithmetic (40-bit, the first NTT prime above 2^50, the largest below
 * 2^51); inputs pinned at the top of each lazy domain; stage partitions
 * at boundaries that are not multiples of 8; BConv from 1 to 16 source
 * limbs; and the dispatch rule that keeps wider moduli on the scalar
 * path. Canonical outputs must be bit-identical to the scalar kernel.
 *
 * Tests that need the vector kernels skip, naming the missing feature,
 * on CPUs without avx512ifma.
 */
#include "math/ifma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "common/random.h"
#include "math/ntt.h"
#include "math/prime_gen.h"
#include "rns/base_conv.h"

namespace bts {
namespace {

#define BTS_REQUIRE_IFMA()                                                  \
    do {                                                                    \
        if (!cpu_has_ifma()) {                                              \
            GTEST_SKIP() << "host CPU lacks avx512ifma (AVX-512 IFMA52); "  \
                            "the vector kernels cannot run here";           \
        }                                                                   \
    } while (0)

/** Every prime below is 1 mod 2^17, so it serves all N <= 2^16. */
constexpr u64 kTwoNMax = u64{1} << 17;

/** The first NTT prime above 2^bits (step +1) or the last below it
 *  (step -1). */
u64
ntt_prime_near(int bits, int step)
{
    u64 q = (u64{1} << bits) + 1;
    if (step < 0) q -= kTwoNMax;
    while (!is_prime(q)) {
        q = step > 0 ? q + kTwoNMax : q - kTwoNMax;
    }
    return q;
}

enum class PrimeKind
{
    k40Bit,
    kFirstAbove2To50,
    kLastBelow2To51,
};

u64
prime_of(PrimeKind kind)
{
    switch (kind) {
    case PrimeKind::k40Bit: return generate_ntt_primes(40, kTwoNMax, 1)[0];
    case PrimeKind::kFirstAbove2To50: return ntt_prime_near(50, +1);
    case PrimeKind::kLastBelow2To51: return ntt_prime_near(51, -1);
    }
    return 0;
}

TEST(IfmaPrimes, EdgePrimesSitWhereTheNamesSay)
{
    const u64 above = prime_of(PrimeKind::kFirstAbove2To50);
    const u64 below = prime_of(PrimeKind::kLastBelow2To51);
    EXPECT_GT(above, u64{1} << 50);
    EXPECT_LT(above, (u64{1} << 50) + (u64{1} << 40));
    EXPECT_LT(below, u64{1} << 51);
    EXPECT_GT(below, (u64{1} << 51) - (u64{1} << 40));
    EXPECT_EQ(above % kTwoNMax, 1u);
    EXPECT_EQ(below % kTwoNMax, 1u);
}

/** Uniform residues in [0, bound * q), the first and last 9 pinned at
 *  bound * q - 1 (the top of the lazy domain, on both sides of the
 *  8-lane boundary). */
std::vector<u64>
pinned_input(std::size_t n, u64 q, u64 bound, u64 seed)
{
    Xoshiro256 rng(seed);
    std::vector<u64> v(n);
    for (auto& x : v) x = rng.uniform(bound * q);
    for (std::size_t i = 0; i < std::min<std::size_t>(9, n); ++i) {
        v[i] = bound * q - 1;
        v[n - 1 - i] = bound * q - 1;
    }
    return v;
}

using NttCase = std::tuple<int, PrimeKind>;

class IfmaNtt : public ::testing::TestWithParam<NttCase>
{
  protected:
    std::size_t n() const { return std::size_t{1} << std::get<0>(GetParam()); }
    u64 q() const { return prime_of(std::get<1>(GetParam())); }
};

TEST_P(IfmaNtt, ForwardMatchesScalarOnInputsUpTo4q)
{
    BTS_REQUIRE_IFMA();
    const std::size_t n = this->n();
    const u64 q = this->q();
    const NttTables scalar(n, q, KernelIsa::kScalar);
    const NttTables vec(n, q, KernelIsa::kIfma52);
    ASSERT_EQ(NttTables(n, q).isa(), KernelIsa::kIfma52);
    const auto input = pinned_input(n, q, 4, n + 1);

    auto want = input;
    auto got = input;
    scalar.forward(want.data());
    vec.forward(got.data());
    EXPECT_EQ(got, want);

    auto canonical = input;
    for (auto& x : canonical) x %= q;
    scalar.forward_oracle(canonical.data());
    EXPECT_EQ(got, canonical);

    auto lazy = input;
    vec.forward_lazy(lazy.data());
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_LT(lazy[i], 2 * q) << "lazy output out of [0, 2q) at " << i;
        ASSERT_EQ(lazy[i] % q, want[i]) << "lazy output not congruent at "
                                        << i;
    }
}

TEST_P(IfmaNtt, InverseMatchesScalarOnInputsUpTo2q)
{
    BTS_REQUIRE_IFMA();
    const std::size_t n = this->n();
    const u64 q = this->q();
    const NttTables scalar(n, q, KernelIsa::kScalar);
    const NttTables vec(n, q, KernelIsa::kIfma52);
    const auto input = pinned_input(n, q, 2, n + 2);

    auto want = input;
    auto got = input;
    scalar.inverse(want.data());
    vec.inverse(got.data());
    EXPECT_EQ(got, want);

    // Round trip through the lazy forward.
    auto round = want;
    vec.forward_lazy(round.data());
    vec.inverse(round.data());
    EXPECT_EQ(round, want);
}

TEST_P(IfmaNtt, StagePartitionsOffTheEightLaneGridComputeTheSameBits)
{
    BTS_REQUIRE_IFMA();
    const std::size_t n = this->n();
    const u64 q = this->q();
    const NttTables vec(n, q, KernelIsa::kIfma52);
    const std::size_t half = n / 2;
    // Cuts that are not multiples of 8 (and a few that are), clipped to
    // the stage.
    std::vector<std::size_t> cuts = {0, half};
    for (std::size_t c : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                          std::size_t{11}, std::size_t{13}, half / 2 + 5,
                          half - 7}) {
        if (c < half) cuts.push_back(c);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    const auto fwd_in = pinned_input(n, q, 4, n + 3);
    for (const bool lazy : {false, true}) {
        auto whole = fwd_in;
        if (lazy) {
            vec.forward_lazy(whole.data());
        } else {
            vec.forward(whole.data());
        }
        auto staged = fwd_in;
        for (std::size_t m = 1; m < n; m <<= 1) {
            for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
                vec.forward_stage(staged.data(), m, cuts[k], cuts[k + 1],
                                  lazy);
            }
        }
        EXPECT_EQ(staged, whole) << "forward, lazy=" << lazy;
    }

    const auto inv_in = pinned_input(n, q, 2, n + 4);
    auto whole = inv_in;
    vec.inverse(whole.data());
    auto staged = inv_in;
    for (std::size_t m = n; m > 1; m >>= 1) {
        for (std::size_t k = 0; k + 1 < cuts.size(); ++k) {
            vec.inverse_stage(staged.data(), m, cuts[k], cuts[k + 1]);
        }
    }
    EXPECT_EQ(staged, whole) << "inverse";
}

std::string
ntt_case_name(const ::testing::TestParamInfo<NttCase>& info)
{
    static const char* const kNames[] = {"q40", "above2to50", "below2to51"};
    return "n2to" + std::to_string(std::get<0>(info.param)) + "_" +
           kNames[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndEdgePrimes, IfmaNtt,
    ::testing::Combine(::testing::Range(3, 17),
                       ::testing::Values(PrimeKind::k40Bit,
                                         PrimeKind::kFirstAbove2To50,
                                         PrimeKind::kLastBelow2To51)),
    ntt_case_name);

class IfmaBaseConv : public ::testing::TestWithParam<int>
{};

TEST_P(IfmaBaseConv, MatchesScalarBitForBit)
{
    BTS_REQUIRE_IFMA();
    const auto src_count = static_cast<std::size_t>(GetParam());
    // Sources straddle 2^50 (the generator alternates around it); the
    // targets include the largest NTT prime below 2^51.
    const std::vector<u64> src =
        generate_ntt_primes(50, kTwoNMax, static_cast<int>(src_count));
    std::vector<u64> tgt = generate_ntt_primes(45, kTwoNMax, 3, src);
    tgt.push_back(prime_of(PrimeKind::kLastBelow2To51));
    const RnsBase source(src);
    const RnsBase target(tgt);
    const BaseConverter scalar(source, target, KernelIsa::kScalar);
    const BaseConverter vec(source, target, KernelIsa::kIfma52);
    ASSERT_EQ(BaseConverter(source, target).isa(), KernelIsa::kIfma52);

    // 1024 coefficients exercise the 16-wide body; 8 leave everything
    // to the scalar tail.
    for (const std::size_t n : {std::size_t{1024}, std::size_t{8}}) {
        RnsPoly input(n, src, Domain::kCoeff);
        Xoshiro256 rng(src_count * 7 + n);
        for (std::size_t j = 0; j < src_count; ++j) {
            u64* x = input.component(j).data();
            for (std::size_t c = 0; c < n; ++c) x[c] = rng.uniform(src[j]);
            for (std::size_t c = 0; c < std::min<std::size_t>(5, n); ++c) {
                x[c] = src[j] - 1;
            }
        }
        const RnsPoly want = scalar.convert(input);
        const RnsPoly got = vec.convert(input);
        EXPECT_TRUE(got.equals(want))
            << src_count << " source limbs, n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(OneToSixteenSources, IfmaBaseConv,
                         ::testing::Range(1, 17));

TEST(IfmaDispatch, WideModuliTakeTheScalarPath)
{
    // Runs on every host: a 61-bit modulus (and anything at or above
    // 2^51) must never reach the 52-bit kernels.
    const std::size_t n = 1 << 10;
    const u64 q61 = generate_ntt_primes(61, 2 * n, 1)[0];
    u64 q51 = (u64{1} << 51) + 1;
    while (!is_prime(q51)) q51 += 2 * n;
    for (const u64 q : {q61, q51}) {
        EXPECT_EQ(dispatch_isa(q), KernelIsa::kScalar) << q;
        EXPECT_EQ(NttTables(n, q).isa(), KernelIsa::kScalar) << q;
        EXPECT_THROW(NttTables(n, q, KernelIsa::kIfma52),
                     std::invalid_argument);
    }
    const std::vector<u64> src = generate_ntt_primes(40, 2 * n, 2);
    const RnsBase source(src);
    const RnsBase wide_target(std::vector<u64>{q61});
    EXPECT_EQ(BaseConverter(source, wide_target).isa(), KernelIsa::kScalar);
    EXPECT_THROW(BaseConverter(source, wide_target, KernelIsa::kIfma52),
                 std::invalid_argument);
}

TEST(IfmaDispatch, KernelIsaNamesTheHostKernel)
{
    EXPECT_STREQ(kernel_isa(), cpu_has_ifma() ? "avx512ifma" : "scalar");
    EXPECT_EQ(dispatch_isa(u64{1} << 40), cpu_has_ifma()
                                              ? KernelIsa::kIfma52
                                              : KernelIsa::kScalar);
}

} // namespace
} // namespace bts
