#include "rns/rns_poly.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "math/mod_arith.h"
#include "math/prime_gen.h"

namespace bts {
namespace {

class RnsPolyTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        primes_ = generate_ntt_primes(40, 2 * n_, 3);
        for (u64 p : primes_) {
            tables_store_.push_back(std::make_unique<NttTables>(n_, p));
            tables_.push_back(tables_store_.back().get());
        }
    }

    RnsPoly
    random_poly(Domain domain, u64 seed)
    {
        Sampler s(seed);
        RnsPoly poly(n_, primes_, domain);
        for (std::size_t i = 0; i < primes_.size(); ++i) {
            poly.component(i).copy_from(s.uniform_poly(n_, primes_[i]));
        }
        return poly;
    }

    const std::size_t n_ = 64;
    std::vector<u64> primes_;
    std::vector<std::unique_ptr<NttTables>> tables_store_;
    std::vector<const NttTables*> tables_;
};

TEST_F(RnsPolyTest, ToNttLazyCanonicalizesToToNtt)
{
    auto canonical = random_poly(Domain::kCoeff, 40);
    auto lazy = canonical;
    canonical.to_ntt(tables_);
    lazy.to_ntt_lazy(tables_);
    EXPECT_EQ(lazy.domain(), Domain::kNtt);
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        const u64 q = primes_[i];
        for (std::size_t c = 0; c < n_; ++c) {
            const u64 v = lazy.component(i)[c];
            ASSERT_LT(v, 2 * q);
            ASSERT_EQ(v >= q ? v - q : v, canonical.component(i)[c]);
        }
    }
}

TEST_F(RnsPolyTest, MulInplaceToleratesLazyOperands)
{
    auto a = random_poly(Domain::kCoeff, 41);
    const auto b = random_poly(Domain::kCoeff, 42);

    auto a_canon = a, b_canon = b;
    a_canon.to_ntt(tables_);
    b_canon.to_ntt(tables_);
    auto expect = a_canon;
    expect.mul_inplace(b_canon);

    auto a_lazy = a, b_lazy = b;
    a_lazy.to_ntt_lazy(tables_);
    b_lazy.to_ntt_lazy(tables_);
    a_lazy.mul_inplace(b_lazy); // both operands in [0, 2q)
    EXPECT_TRUE(a_lazy.equals(expect)); // output canonical either way
}

TEST_F(RnsPolyTest, SubMulScalarFusedMatchesSeparateOps)
{
    auto acc1 = random_poly(Domain::kCoeff, 45);
    const auto src = random_poly(Domain::kCoeff, 46);
    acc1.to_ntt(tables_);
    auto acc2 = acc1;
    auto acc3 = acc1;
    std::vector<u64> scalars;
    for (u64 q : primes_) scalars.push_back(q / 3 + 7);

    auto src_canon = src;
    src_canon.to_ntt(tables_);
    acc1.sub_inplace(src_canon);
    acc1.mul_scalar_inplace(scalars);

    acc2.sub_mul_scalar_inplace(src_canon, scalars);
    EXPECT_TRUE(acc2.equals(acc1));

    auto src_lazy = src;
    src_lazy.to_ntt_lazy(tables_);
    acc3.sub_mul_scalar_inplace(src_lazy, scalars,
                                RnsPoly::Residues::kLazy2q);
    EXPECT_TRUE(acc3.equals(acc1));
}

TEST_F(RnsPolyTest, AddMulScalarMatchesMulThenAdd)
{
    const std::vector<u64> scalars = {3, primes_[1] - 7, 1ULL << 35};
    const auto src = random_poly(Domain::kNtt, 13);
    for (const std::size_t limbs : {primes_.size(), primes_.size() - 1}) {
        // limbs < src limbs: the source's extra top limb is ignored.
        auto expect = random_poly(Domain::kNtt, 14);
        expect.truncate(limbs);
        auto got = expect;
        auto term = src;
        term.truncate(limbs);
        term.mul_scalar_inplace(scalars);
        expect.add_inplace(term);

        got.add_mul_scalar_inplace(src, scalars);
        EXPECT_EQ(got.num_primes(), limbs);
        EXPECT_TRUE(got.equals(expect)) << limbs << " limbs";
    }
}

TEST_F(RnsPolyTest, AddSubInverse)
{
    auto a = random_poly(Domain::kCoeff, 1);
    const auto b = random_poly(Domain::kCoeff, 2);
    const auto orig = a;
    a.add_inplace(b);
    a.sub_inplace(b);
    EXPECT_TRUE(a.equals(orig));
}

TEST_F(RnsPolyTest, NegateTwiceIsIdentity)
{
    auto a = random_poly(Domain::kCoeff, 3);
    const auto orig = a;
    a.negate_inplace();
    EXPECT_FALSE(a.equals(orig));
    a.negate_inplace();
    EXPECT_TRUE(a.equals(orig));
}

TEST_F(RnsPolyTest, NttRoundTrip)
{
    auto a = random_poly(Domain::kCoeff, 4);
    const auto orig = a;
    a.to_ntt(tables_);
    EXPECT_EQ(a.domain(), Domain::kNtt);
    a.to_coeff(tables_);
    EXPECT_TRUE(a.equals(orig));
}

TEST_F(RnsPolyTest, MulRequiresNttDomain)
{
    auto a = random_poly(Domain::kCoeff, 5);
    const auto b = random_poly(Domain::kCoeff, 6);
    EXPECT_THROW(a.mul_inplace(b), std::invalid_argument);
}

TEST_F(RnsPolyTest, MulMatchesPerComponentReference)
{
    auto a = random_poly(Domain::kCoeff, 7);
    auto b = random_poly(Domain::kCoeff, 8);
    std::vector<std::vector<u64>> expected;
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        expected.push_back(negacyclic_mul_reference(
            a.component(i).to_vector(), b.component(i).to_vector(),
            primes_[i]));
    }
    a.to_ntt(tables_);
    b.to_ntt(tables_);
    a.mul_inplace(b);
    a.to_coeff(tables_);
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        EXPECT_EQ(a.component(i), expected[i]);
    }
}

TEST_F(RnsPolyTest, ScalarMul)
{
    auto a = random_poly(Domain::kCoeff, 9);
    const auto orig = a;
    std::vector<u64> scalars = {3, 3, 3};
    a.mul_scalar_inplace(scalars);
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        for (std::size_t c = 0; c < n_; ++c) {
            EXPECT_EQ(a.component(i)[c],
                      mul_mod(orig.component(i)[c], 3, primes_[i]));
        }
    }
}

TEST_F(RnsPolyTest, TruncateAndPush)
{
    auto a = random_poly(Domain::kCoeff, 10);
    const std::vector<u64> comp2 = a.component(2).to_vector();
    a.truncate(2);
    EXPECT_EQ(a.num_primes(), 2u);
    a.push_component(primes_[2], comp2);
    EXPECT_EQ(a.num_primes(), 3u);
    EXPECT_EQ(a.component(2), comp2);
    a.pop_component();
    EXPECT_EQ(a.num_primes(), 2u);
}

TEST_F(RnsPolyTest, FlatStorageIsLimbMajorContiguous)
{
    const auto a = random_poly(Domain::kCoeff, 21);
    const u64* base = a.data();
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        EXPECT_EQ(a.component(i).data(), base + i * n_);
        EXPECT_EQ(a.component(i).size(), n_);
    }
}

TEST_F(RnsPolyTest, TruncateKeepsSurvivingRowsInPlace)
{
    auto a = random_poly(Domain::kCoeff, 22);
    const std::vector<u64> row0 = a.component(0).to_vector();
    const std::vector<u64> row1 = a.component(1).to_vector();
    const u64* base = a.data();
    a.truncate(2);
    // Shrinking must not move the flat buffer or disturb survivors.
    EXPECT_EQ(a.data(), base);
    EXPECT_EQ(a.component(0), row0);
    EXPECT_EQ(a.component(1), row1);
}

TEST_F(RnsPolyTest, PushComponentAppendsContiguously)
{
    auto a = random_poly(Domain::kCoeff, 23);
    Sampler s(24);
    const std::vector<u64> extra = s.uniform_poly(n_, primes_[2]);
    a.truncate(2);
    a.push_component(primes_[2], extra);
    EXPECT_EQ(a.num_primes(), 3u);
    EXPECT_EQ(a.component(2), extra);
    // Contiguity must hold across the grow.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(a.component(i).data(), a.data() + i * n_);
    }
    EXPECT_THROW(a.push_component(primes_[0], std::vector<u64>(n_ / 2)),
                 std::invalid_argument);
}

TEST_F(RnsPolyTest, PopComponentDropsExactlyTheLastRow)
{
    auto a = random_poly(Domain::kCoeff, 25);
    const std::vector<u64> row0 = a.component(0).to_vector();
    const std::vector<u64> row1 = a.component(1).to_vector();
    a.pop_component();
    EXPECT_EQ(a.num_primes(), 2u);
    EXPECT_EQ(a.primes(), std::vector<u64>(primes_.begin(),
                                           primes_.begin() + 2));
    EXPECT_EQ(a.component(0), row0);
    EXPECT_EQ(a.component(1), row1);
    a.pop_component();
    a.pop_component();
    EXPECT_THROW(a.pop_component(), std::invalid_argument);
}

TEST_F(RnsPolyTest, CopyAndMoveKeepResidues)
{
    const auto a = random_poly(Domain::kNtt, 26);
    RnsPoly copy = a;
    EXPECT_TRUE(copy.equals(a));
    EXPECT_NE(copy.data(), a.data()); // deep copy of the flat buffer

    RnsPoly moved = std::move(copy);
    EXPECT_TRUE(moved.equals(a));

    RnsPoly assigned;
    assigned = a;
    EXPECT_TRUE(assigned.equals(a));
    assigned = random_poly(Domain::kCoeff, 27); // reassign over live data
    EXPECT_FALSE(assigned.equals(a));
}

TEST_F(RnsPolyTest, OperandPrefixCompatibility)
{
    // A smaller-level poly may consume a larger one (prefix rule).
    auto a = random_poly(Domain::kCoeff, 11);
    auto b = random_poly(Domain::kCoeff, 12);
    a.truncate(2);
    EXPECT_NO_THROW(a.add_inplace(b));
    // But not the other way around.
    EXPECT_THROW(b.add_inplace(a), std::invalid_argument);
}

TEST_F(RnsPolyTest, AutomorphismIdentity)
{
    const auto a = random_poly(Domain::kCoeff, 13);
    // galois exponent 1 is the identity.
    EXPECT_TRUE(a.automorphism(1).equals(a));
}

TEST_F(RnsPolyTest, AutomorphismComposition)
{
    // sigma_a(sigma_b(x)) == sigma_{a*b mod 2N}(x).
    const auto a = random_poly(Domain::kCoeff, 14);
    const u64 two_n = 2 * n_;
    const u64 e1 = 5, e2 = 25;
    const auto lhs = a.automorphism(e1).automorphism(e2);
    const auto rhs = a.automorphism((e1 * e2) % two_n);
    EXPECT_TRUE(lhs.equals(rhs));
}

TEST_F(RnsPolyTest, AutomorphismOnMonomial)
{
    // X -> X^k maps the monomial X^j to +-X^{jk mod N}.
    RnsPoly a(n_, primes_, Domain::kCoeff);
    for (std::size_t i = 0; i < primes_.size(); ++i) a.component(i)[3] = 1;
    const u64 k = 5;
    const auto out = a.automorphism(k);
    const u64 target = (3 * k) % (2 * n_); // 15 < n: positive
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        for (std::size_t c = 0; c < n_; ++c) {
            EXPECT_EQ(out.component(i)[c], c == target ? 1u : 0u);
        }
    }
}

TEST_F(RnsPolyTest, AutomorphismWrapsWithSign)
{
    // Choose j*k past N so the negacyclic sign flip triggers.
    RnsPoly a(n_, primes_, Domain::kCoeff);
    const std::size_t j = 20;
    for (std::size_t i = 0; i < primes_.size(); ++i) a.component(i)[j] = 1;
    const u64 k = 5;
    const u64 jk = (j * k) % (2 * n_); // 100 >= 64 -> -X^{100-64}
    ASSERT_GE(jk, n_);
    const auto out = a.automorphism(k);
    for (std::size_t i = 0; i < primes_.size(); ++i) {
        EXPECT_EQ(out.component(i)[jk - n_], primes_[i] - 1);
    }
}

TEST_F(RnsPolyTest, AutomorphismPreservesRingMultiplication)
{
    // sigma(a * b) == sigma(a) * sigma(b): the property HRot relies on.
    auto a = random_poly(Domain::kCoeff, 15);
    auto b = random_poly(Domain::kCoeff, 16);
    const u64 exp = 13; // odd

    auto prod = a;
    prod.to_ntt(tables_);
    auto b_ntt = b;
    b_ntt.to_ntt(tables_);
    prod.mul_inplace(b_ntt);
    prod.to_coeff(tables_);
    const auto lhs = prod.automorphism(exp);

    auto sa = a.automorphism(exp);
    auto sb = b.automorphism(exp);
    sa.to_ntt(tables_);
    sb.to_ntt(tables_);
    sa.mul_inplace(sb);
    sa.to_coeff(tables_);
    EXPECT_TRUE(lhs.equals(sa));
}

TEST(AutomorphismNtt, MatchesCoefficientDomainRoundTrip)
{
    // automorphism_ntt is the NTT-domain image of automorphism(): an
    // index permutation of the bit-reversed evaluation points. Pin it
    // against to_coeff -> automorphism -> to_ntt for rotation exponents
    // 5^k and conjugation 2N-1, on canonical and lazy [0, 2q) input.
    for (std::size_t n = 1 << 8; n <= (1 << 12); n <<= 1) {
        const u64 two_n = 2 * static_cast<u64>(n);
        const std::vector<u64> primes = generate_ntt_primes(50, two_n, 2);
        std::vector<std::unique_ptr<NttTables>> store;
        std::vector<const NttTables*> tables;
        for (u64 p : primes) {
            store.push_back(std::make_unique<NttTables>(n, p));
            tables.push_back(store.back().get());
        }
        Sampler s(n);
        RnsPoly canonical(n, primes, Domain::kNtt);
        for (std::size_t i = 0; i < primes.size(); ++i) {
            canonical.component(i).copy_from(s.uniform_poly(n, primes[i]));
        }
        // Lazy copy: lift every third residue by q, and pin the extreme
        // 2q - 1 (a residue of q - 1) at one point per limb.
        RnsPoly lazy = canonical;
        for (std::size_t i = 0; i < primes.size(); ++i) {
            canonical.component(i)[5] = primes[i] - 1;
            for (std::size_t c = 0; c < n; c += 3) {
                lazy.component(i)[c] = canonical.component(i)[c] + primes[i];
            }
            lazy.component(i)[5] = 2 * primes[i] - 1;
        }

        std::vector<u64> exps = {two_n - 1};
        for (u64 k : {u64{1}, u64{2}, u64{3}, u64{7}, n / 4 - 1, n / 2 - 1}) {
            exps.push_back(pow_mod(5, k, two_n));
        }
        for (const u64 g : exps) {
            RnsPoly ref = canonical;
            ref.to_coeff(tables);
            ref = ref.automorphism(g);
            ref.to_ntt(tables);
            const std::vector<u32> perm = ntt_galois_permutation(n, g);
            EXPECT_TRUE(canonical.automorphism_ntt(perm).equals(ref))
                << "n=" << n << " g=" << g;
            EXPECT_TRUE(lazy.automorphism_ntt(perm).equals(ref))
                << "lazy input, n=" << n << " g=" << g;
        }
    }
}

TEST(AutomorphismNtt, RejectsCoefficientDomainAndBadTables)
{
    const std::size_t n = 64;
    const std::vector<u64> primes = generate_ntt_primes(40, 2 * n, 1);
    const RnsPoly coeff(n, primes, Domain::kCoeff);
    EXPECT_THROW(coeff.automorphism_ntt(ntt_galois_permutation(n, 5)),
                 std::invalid_argument);
    const RnsPoly ntt(n, primes, Domain::kNtt);
    EXPECT_THROW(ntt.automorphism_ntt(ntt_galois_permutation(2 * n, 5)),
                 std::invalid_argument);
    EXPECT_THROW(ntt_galois_permutation(n, 4), std::invalid_argument);
}

TEST(AutomorphismNtt, PermutationIsABijectionAndComposes)
{
    const std::size_t n = 256;
    const u64 two_n = 2 * n;
    const auto p5 = ntt_galois_permutation(n, 5);
    const auto p25 = ntt_galois_permutation(n, 25);
    std::vector<bool> seen(n, false);
    for (std::size_t c = 0; c < n; ++c) {
        ASSERT_LT(p5[c], n);
        EXPECT_FALSE(seen[p5[c]]);
        seen[p5[c]] = true;
        // sigma_5 o sigma_5 == sigma_25 as index maps.
        EXPECT_EQ(p5[p5[c]], p25[c]);
    }
    const auto id = ntt_galois_permutation(n, two_n + 1); // == X -> X
    for (std::size_t c = 0; c < n; ++c) EXPECT_EQ(id[c], c);
}

/** Reference for fused_mac2: per-term canonical products, add_mod. */
void
reference_mac2(const std::vector<u64>& primes, std::size_t n,
               std::size_t num_terms, const std::vector<MacTerm>& terms,
               const u32* perm, RnsPoly& out0, RnsPoly& out1)
{
    for (std::size_t i = 0; i < primes.size(); ++i) {
        const u64 q = primes[i];
        for (std::size_t c = 0; c < n; ++c) {
            const std::size_t src = perm ? perm[c] : c;
            u64 a0 = 0, a1 = 0;
            for (std::size_t t = 0; t < num_terms; ++t) {
                const MacTerm& m = terms[i * num_terms + t];
                a0 = add_mod(a0, mul_mod(m.x[src], m.y0[c], q), q);
                a1 = add_mod(a1, mul_mod(m.x[src], m.y1[c], q), q);
            }
            out0.component(i)[c] = a0;
            out1.component(i)[c] = a1;
        }
    }
}

TEST(FusedMac2, MatchesPerTermReferenceIncludingOverflowGuard)
{
    // 61-bit primes put the guard at K = floor((2^64 - 1) / 4q) = 2
    // terms, so every sum of 3+ terms reduces mid-way; 50-bit primes
    // never do. Lazy operands pinned at 2q - 1 are the worst case for
    // the 128-bit accumulator.
    const std::size_t n = 256;
    for (int bits : {50, 61}) {
        const std::vector<u64> primes = generate_ntt_primes(bits, 2 * n, 2);
        for (std::size_t num_terms : {1, 2, 3, 5, 9, 40}) {
            Sampler s(bits * 100 + num_terms);
            std::vector<std::vector<u64>> rows;
            std::vector<MacTerm> terms(primes.size() * num_terms);
            rows.reserve(terms.size() * 3);
            for (std::size_t i = 0; i < primes.size(); ++i) {
                const u64 q = primes[i];
                for (std::size_t t = 0; t < num_terms; ++t) {
                    for (int r = 0; r < 3; ++r) {
                        std::vector<u64> row = s.uniform_poly(n, q);
                        for (std::size_t c = 0; c < n; c += 2) row[c] += q;
                        for (std::size_t c = 0; c < 8; ++c) row[c] = 2 * q - 1;
                        rows.push_back(std::move(row));
                    }
                    const std::size_t base = rows.size() - 3;
                    terms[i * num_terms + t] = {rows[base].data(),
                                                rows[base + 1].data(),
                                                rows[base + 2].data()};
                }
            }
            const std::vector<u32> perm = ntt_galois_permutation(n, 5);
            for (const u32* p : {static_cast<const u32*>(nullptr),
                                 perm.data()}) {
                RnsPoly got0(n, primes, Domain::kNtt, RnsPoly::Uninit{});
                RnsPoly got1(n, primes, Domain::kNtt, RnsPoly::Uninit{});
                fused_mac2(num_terms, terms, p, got0, got1);
                RnsPoly want0(n, primes, Domain::kNtt);
                RnsPoly want1(n, primes, Domain::kNtt);
                reference_mac2(primes, n, num_terms, terms, p, want0, want1);
                EXPECT_TRUE(got0.equals(want0))
                    << bits << "-bit, " << num_terms << " terms, perm=" << !!p;
                EXPECT_TRUE(got1.equals(want1))
                    << bits << "-bit, " << num_terms << " terms, perm=" << !!p;
            }
        }
    }
}

} // namespace
} // namespace bts
