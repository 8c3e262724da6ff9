/**
 * Bit-exactness of the evaluation-domain key-switch paths against a
 * reference composed here from the textbook pieces: coefficient-domain
 * automorphism (iNTT -> RnsPoly::automorphism -> NTT), an explicitly
 * assembled extended digit per dnum slice, per-term mul_inplace +
 * add_inplace inner products, and per-term mult_plain / add giant
 * steps. The library instead permutes NTT evaluation points, reads the
 * digits in place and sums every product lazily with one reduction per
 * output; all of these produce canonical residues, so the ciphertexts
 * must agree bit for bit, not just decrypt alike.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "ckks/dft_factor.h"
#include "ckks/linear_transform.h"
#include "ckks/test_utils.h"
#include "math/mod_arith.h"

namespace bts {
namespace {

using testing::BootTestEnv;
using testing::ct_equal;
using testing::TestEnv;

/** The reference key-switch engine (see the file comment). */
class Reference
{
  public:
    explicit Reference(const CkksContext& ctx) : ctx_(ctx) {}

    /** to_coeff -> coefficient-domain automorphism -> to_ntt. */
    RnsPoly
    sigma(const RnsPoly& x, u64 galois_exp) const
    {
        RnsPoly y = x;
        y.to_coeff(ctx_.tables_for(y));
        y = y.automorphism(galois_exp);
        y.to_ntt(ctx_.tables_for(y));
        return y;
    }

    /** Extended digits f_j over {q_0..q_l, p_*}, COEFFICIENT domain. */
    std::vector<RnsPoly>
    mod_up_coeff(const RnsPoly& d_ntt, int level) const
    {
        RnsPoly d = d_ntt;
        d.to_coeff(ctx_.tables_for(d));
        const auto q = ctx_.level_primes(level);
        const auto ext = ctx_.extended_primes(level);
        std::vector<RnsPoly> out;
        for (int j = 0; j < ctx_.num_slices(level); ++j) {
            const auto [begin, end] = ctx_.slice_range(j, level);
            std::vector<u64> src(q.begin() + begin, q.begin() + end);
            std::vector<u64> tgt;
            for (int i = 0; i <= level; ++i) {
                if (i < begin || i >= end) tgt.push_back(q[i]);
            }
            tgt.insert(tgt.end(), ctx_.p_primes().begin(),
                       ctx_.p_primes().end());
            RnsPoly slice(ctx_.n(), src, Domain::kCoeff);
            for (int i = begin; i < end; ++i) {
                slice.component(i - begin).copy_from(d.component(i));
            }
            const RnsPoly conv = ctx_.converter(src, tgt).convert(slice);
            RnsPoly f(ctx_.n(), ext, Domain::kCoeff);
            std::size_t k = 0;
            for (std::size_t i = 0; i < ext.size(); ++i) {
                const int ii = static_cast<int>(i);
                f.component(i).copy_from(ii >= begin && ii < end
                                             ? d.component(i)
                                             : conv.component(k++));
            }
            out.push_back(std::move(f));
        }
        return out;
    }

    /** The key slice copied onto the level-l extended base. */
    RnsPoly
    key_on_ext(const RnsPoly& key, int level) const
    {
        const auto ext = ctx_.extended_primes(level);
        RnsPoly out(ctx_.n(), ext, Domain::kNtt);
        for (std::size_t i = 0; i < ext.size(); ++i) {
            const int ii = static_cast<int>(i);
            const std::size_t ki =
                ii <= level ? i
                            : static_cast<std::size_t>(ctx_.max_level() + 1 +
                                                       ii - level - 1);
            out.component(i).copy_from(key.component(ki));
        }
        return out;
    }

    /** ModDown by P as separate subtract and scalar-multiply passes. */
    void
    mod_down(RnsPoly& acc, int level) const
    {
        const auto q = ctx_.level_primes(level);
        RnsPoly p_part(ctx_.n(), ctx_.p_primes(), Domain::kNtt);
        for (int t = 0; t < ctx_.num_special(); ++t) {
            p_part.component(t).copy_from(acc.component(level + 1 + t));
        }
        p_part.to_coeff(ctx_.tables_for(p_part));
        RnsPoly lifted = ctx_.converter(ctx_.p_primes(), q).convert(p_part);
        lifted.to_ntt(ctx_.tables_for(lifted));
        acc.truncate(level + 1);
        acc.sub_inplace(lifted);
        std::vector<u64> p_inv;
        for (const u64 qi : q) p_inv.push_back(ctx_.p_inv_mod(qi));
        acc.mul_scalar_inplace(p_inv);
    }

    /** Per-term inner product of NTT-domain digits, then ModDown. */
    std::pair<RnsPoly, RnsPoly>
    inner_and_down(const std::vector<RnsPoly>& f_ntt, const EvalKey& key,
                   int level) const
    {
        const auto ext = ctx_.extended_primes(level);
        RnsPoly acc_b(ctx_.n(), ext, Domain::kNtt);
        RnsPoly acc_a(ctx_.n(), ext, Domain::kNtt);
        for (std::size_t j = 0; j < f_ntt.size(); ++j) {
            RnsPoly tb = f_ntt[j];
            tb.mul_inplace(key_on_ext(key.slices[j].first, level));
            acc_b.add_inplace(tb);
            RnsPoly ta = f_ntt[j];
            ta.mul_inplace(key_on_ext(key.slices[j].second, level));
            acc_a.add_inplace(ta);
        }
        mod_down(acc_b, level);
        mod_down(acc_a, level);
        return {std::move(acc_b), std::move(acc_a)};
    }

    std::pair<RnsPoly, RnsPoly>
    key_switch(const RnsPoly& d, const EvalKey& key, int level) const
    {
        std::vector<RnsPoly> f = mod_up_coeff(d, level);
        for (RnsPoly& x : f) x.to_ntt(ctx_.tables_for(x));
        return inner_and_down(f, key, level);
    }

    Ciphertext
    galois(const Ciphertext& ct, u64 exp, const EvalKey& key) const
    {
        Ciphertext out = ct;
        out.b = sigma(ct.b, exp);
        auto [kb, ka] = key_switch(sigma(ct.a, exp), key, ct.level);
        out.b.add_inplace(kb);
        out.a = std::move(ka);
        return out;
    }

    u64
    rotation_exp(int r) const
    {
        const i64 order = static_cast<i64>(ctx_.n() / 2);
        return pow_mod(5, static_cast<u64>(((r % order) + order) % order),
                       2 * ctx_.n());
    }

    Ciphertext
    rotate(const Ciphertext& ct, int r, const EvalKey& key) const
    {
        return r == 0 ? ct : galois(ct, rotation_exp(r), key);
    }

    Ciphertext
    conjugate(const Ciphertext& ct, const EvalKey& key) const
    {
        return galois(ct, 2 * ctx_.n() - 1, key);
    }

    /** Hoisting: ModUp once in the coefficient domain, then per amount
     *  a coefficient-domain automorphism of every digit and an NTT. */
    std::vector<Ciphertext>
    rotate_hoisted(const Ciphertext& ct, const std::vector<int>& amounts,
                   const RotationKeys& keys) const
    {
        const std::vector<RnsPoly> f = mod_up_coeff(ct.a, ct.level);
        std::vector<Ciphertext> out;
        for (const int r : amounts) {
            if (r == 0) {
                out.push_back(ct);
                continue;
            }
            const u64 exp = rotation_exp(r);
            std::vector<RnsPoly> g;
            for (const RnsPoly& x : f) {
                g.push_back(x.automorphism(exp));
                g.back().to_ntt(ctx_.tables_for(g.back()));
            }
            auto [b, a] = inner_and_down(g, keys.at(r), ct.level);
            b.add_inplace(sigma(ct.b, exp));
            Ciphertext res = ct;
            res.b = std::move(b);
            res.a = std::move(a);
            out.push_back(std::move(res));
        }
        return out;
    }

    Ciphertext
    mult(const Ciphertext& a, const Ciphertext& b, const EvalKey& key) const
    {
        RnsPoly d0 = a.b;
        d0.mul_inplace(b.b);
        RnsPoly d1 = a.a;
        d1.mul_inplace(b.b);
        RnsPoly d1b = a.b;
        d1b.mul_inplace(b.a);
        d1.add_inplace(d1b);
        RnsPoly d2 = a.a;
        d2.mul_inplace(b.a);
        auto [kb, ka] = key_switch(d2, key, a.level);
        d0.add_inplace(kb);
        d1.add_inplace(ka);
        Ciphertext out = a;
        out.b = std::move(d0);
        out.a = std::move(d1);
        out.scale = a.scale * b.scale;
        return out;
    }

    /** BSGS with hoisted babies, per-term mult_plain + add giant-step
     *  sums and one reference rotation per giant step. */
    Ciphertext
    lt_apply(const Evaluator& eval, const LinearTransform& lt,
             const Ciphertext& ct, const RotationKeys& keys) const
    {
        Ciphertext input = ct;
        eval.drop_level_inplace(input, lt.level());
        std::vector<int> amounts;
        for (const auto& d : lt.diagonals()) {
            if (d.baby != 0 && std::find(amounts.begin(), amounts.end(),
                                         d.baby) == amounts.end()) {
                amounts.push_back(d.baby);
            }
        }
        std::vector<Ciphertext> baby(lt.baby_steps());
        baby[0] = input;
        const auto rotated = rotate_hoisted(input, amounts, keys);
        for (std::size_t i = 0; i < amounts.size(); ++i) {
            baby[amounts[i]] = rotated[i];
        }
        Ciphertext acc;
        bool acc_set = false;
        for (int i = 0; i <= lt.diagonals().back().giant; ++i) {
            Ciphertext inner;
            bool inner_set = false;
            for (const auto& d : lt.diagonals()) {
                if (d.giant != i) continue;
                Ciphertext term = eval.mult_plain(baby[d.baby], d.plaintext);
                inner = inner_set ? eval.add(inner, term) : term;
                inner_set = true;
            }
            if (!inner_set) continue;
            const int gi = (i * lt.baby_steps()) %
                           static_cast<int>(lt.dimension());
            if (gi != 0) inner = rotate(inner, gi, keys.at(gi));
            acc = acc_set ? eval.add(acc, inner) : inner;
            acc_set = true;
        }
        eval.rescale_inplace(acc);
        acc.scale = ct.scale;
        return acc;
    }

  private:
    const CkksContext& ctx_;
};

/** A dense random matrix (entries of magnitude <= @p mag). */
std::vector<std::vector<Complex>>
random_matrix(std::size_t n, double mag, u64 seed)
{
    Xoshiro256 rng(seed);
    std::vector<std::vector<Complex>> m(n, std::vector<Complex>(n));
    for (auto& row : m) {
        for (auto& v : row) {
            v = Complex(mag * (2 * rng.uniform_real() - 1),
                        mag * (2 * rng.uniform_real() - 1));
        }
    }
    return m;
}

/** The largest number of diagonals any giant step sums. */
int
max_giant_terms(const LinearTransform& lt)
{
    std::map<int, int> per_giant;
    int most = 0;
    for (const auto& d : lt.diagonals()) {
        most = std::max(most, ++per_giant[d.giant]);
    }
    return most;
}

/** Checks every key-switching op of @p env against the reference. */
void
expect_ops_match_reference(TestEnv& env, std::size_t slots, double mag)
{
    const Reference ref(env.ctx);
    const Evaluator& ev = env.evaluator;
    const std::vector<int> amounts = {1, 3, -2, 0, 7,
                                      static_cast<int>(slots) / 2};
    std::vector<int> key_amounts;
    for (const int r : amounts) {
        if (r != 0) key_amounts.push_back(r);
    }
    const RotationKeys keys = env.keygen.gen_rotation_keys(env.sk, key_amounts);

    const Ciphertext x = env.encrypt(env.random_message(slots, mag, 1));
    const Ciphertext y = env.encrypt(env.random_message(slots, mag, 2));
    // A lazy [0, 2q) operand: rotations and mult must accept it.
    const Ciphertext lazy = ev.add_lazy(x, y);

    for (const Ciphertext* in : {&x, &lazy}) {
        for (const int r : key_amounts) {
            EXPECT_TRUE(ct_equal(ev.rotate(*in, r, keys.at(r)),
                                 ref.rotate(*in, r, keys.at(r))))
                << "rotate " << r;
        }
        EXPECT_TRUE(ct_equal(ev.conjugate(*in, env.conj_key),
                             ref.conjugate(*in, env.conj_key)));
        const auto got = ev.rotate_hoisted(*in, amounts, keys);
        const auto want = ref.rotate_hoisted(*in, amounts, keys);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < got.size(); ++k) {
            EXPECT_TRUE(ct_equal(got[k], want[k]))
                << "hoisted amount " << amounts[k];
        }
        EXPECT_TRUE(ct_equal(ev.mult(*in, y, env.mult_key),
                             ref.mult(*in, y, env.mult_key)));
    }
    // Lower levels change the digit count and the extended base.
    for (int level = env.ctx.max_level() - 1; level >= 0; level -= 2) {
        Ciphertext a = x, b = y;
        ev.drop_level_inplace(a, level);
        ev.drop_level_inplace(b, level);
        EXPECT_TRUE(ct_equal(ev.mult(a, b, env.mult_key),
                             ref.mult(a, b, env.mult_key)))
            << "level " << level;
        EXPECT_TRUE(ct_equal(ev.rotate(a, 3, keys.at(3)),
                             ref.rotate(a, 3, keys.at(3))))
            << "level " << level;
    }
}

TEST(KeySwitchReference, RotationsHoistingAndMultAreBitExact)
{
    expect_ops_match_reference(testing::default_env(), 64, 1.0);
}

CkksParams
wide_params()
{
    // The widest primes the library supports: the fused accumulators'
    // overflow guard is K = floor((2^64 - 1) / 4q) terms, 4 for the
    // 60-bit q chain and 2 for the 61-bit special prime (which must
    // dominate every single-prime digit), so the 5-digit evk inner
    // product and every giant step of 5+ diagonals reduce mid-sum.
    CkksParams p;
    p.n = 1 << 10;
    p.max_level = 4;
    p.dnum = 5;
    p.q0_bits = 60;
    p.scale_bits = 60;
    p.special_bits = 61;
    p.hamming_weight = 32;
    p.seed = 77;
    return p;
}

TEST(KeySwitchReference, WidePrimesExerciseTheAccumulatorGuard)
{
    TestEnv& env = testing::cached_env("wide61", wide_params());
    ASSERT_EQ(env.ctx.num_slices(env.ctx.max_level()), 5);
    // Messages stay small so encoding at Delta = 2^60 fits 62 bits.
    expect_ops_match_reference(env, 16, 0.1);

    // Giant steps of 8 diagonals, twice the guard's K for the 60-bit
    // chain. (The worst-case operands that would overflow an unguarded
    // sum are pinned at the kernel level in test_rns_poly.cpp.)
    const std::size_t slots = 16;
    const int level = env.ctx.max_level();
    const LinearTransform lt(env.ctx, env.encoder,
                             random_matrix(slots, 0.1, 5), level, 4.0);
    const u64 guard = ~u64{0} / (4 * env.ctx.q_primes()[level]);
    ASSERT_GT(static_cast<u64>(max_giant_terms(lt)), guard);
    const RotationKeys keys =
        env.keygen.gen_rotation_keys(env.sk, lt.required_rotations());
    const Ciphertext ct = env.encrypt(env.random_message(slots, 0.1, 6));
    const Ciphertext lazy = env.evaluator.add_lazy(ct, ct);
    for (const Ciphertext* in : {&ct, &lazy}) {
        EXPECT_TRUE(ct_equal(lt.apply(env.evaluator, *in, keys),
                             Reference(env.ctx).lt_apply(env.evaluator, lt,
                                                         *in, keys)));
    }
}

TEST(KeySwitchReference, LinearTransformApplyIsBitExact)
{
    TestEnv& env = testing::default_env();
    const std::size_t slots = 32;
    const Reference ref(env.ctx);
    for (const double ratio : {1.0, 4.0}) {
        const LinearTransform lt(env.ctx, env.encoder,
                                 random_matrix(slots, 0.5, 7), 5, ratio);
        const RotationKeys keys =
            env.keygen.gen_rotation_keys(env.sk, lt.required_rotations());
        const Ciphertext x = env.encrypt(env.random_message(slots, 1.0, 8));
        const Ciphertext lazy = env.evaluator.add_lazy(x, x);
        for (const Ciphertext* in : {&x, &lazy}) {
            EXPECT_TRUE(ct_equal(lt.apply(env.evaluator, *in, keys),
                                 ref.lt_apply(env.evaluator, lt, *in, keys)))
                << "bsgs_ratio " << ratio;
        }
    }
}

TEST(KeySwitchReference, BootstrapIsBitExact)
{
    // The reference bootstrap re-composes the pipeline from its stages:
    // SubSum and the CtS/StC transforms and conjugation go through the
    // reference rotations and giant steps; EvalMod is the library's
    // (its only key-switching op, mult, is pinned above).
    BootTestEnv be(7);
    TestEnv& env = be.env;
    const Evaluator& ev = env.evaluator;
    const Reference ref(env.ctx);
    const Bootstrapper& boot = *be.boot;
    const BootstrapConfig& cfg = boot.config();
    const FactoredDft cts(env.ctx, env.encoder, cfg.slots,
                          DftDirection::kCoeffToSlot, cfg.cts_radix,
                          env.ctx.max_level());
    const FactoredDft stc(env.ctx, env.encoder, cfg.slots,
                          DftDirection::kSlotToCoeff, cfg.stc_radix,
                          boot.stc_input_level());

    const Ciphertext ct =
        env.encrypt(env.random_message(cfg.slots, 0.5, 3), 0);

    Ciphertext raised = ev.mod_raise(ct);
    for (std::size_t r = cfg.slots; r < env.ctx.n() / 2; r *= 2) {
        Ciphertext view = raised;
        view.slots = env.ctx.n() / 2;
        const Ciphertext rot =
            ref.rotate(view, static_cast<int>(r),
                       be.rot_keys.at(static_cast<int>(r)));
        raised.b.add_inplace(rot.b);
        raised.a.add_inplace(rot.a);
    }
    raised.scale = static_cast<double>(env.ctx.q_primes()[0]);
    raised.slots = cfg.slots;
    EXPECT_TRUE(ct_equal(raised, boot.stage_raise_and_subsum(ct)));

    Ciphertext t = raised;
    for (int s = 0; s < cts.num_stages(); ++s) {
        t = ref.lt_apply(ev, cts.stage(s), t, be.rot_keys);
    }
    const Ciphertext tc = ref.conjugate(t, env.conj_key);
    Ciphertext u_re = t;
    u_re.b.add_inplace(tc.b);
    u_re.a.add_inplace(tc.a);
    Ciphertext diff = tc;
    diff.b.sub_inplace(t.b);
    diff.a.sub_inplace(t.a);
    const Ciphertext u_im = ev.mult_by_i(diff);
    const auto [got_re, got_im] = boot.stage_coeff_to_slot(raised);
    EXPECT_TRUE(ct_equal(u_re, got_re));
    EXPECT_TRUE(ct_equal(u_im, got_im));

    Ciphertext w = boot.stage_eval_mod(u_re);
    Ciphertext im = ev.mult_by_i(boot.stage_eval_mod(u_im));
    ev.drop_level_inplace(w, std::min(w.level, im.level));
    ev.drop_level_inplace(im, w.level);
    w.b.add_inplace(im.b);
    w.a.add_inplace(im.a);
    for (int s = 0; s < stc.num_stages(); ++s) {
        w = ref.lt_apply(ev, stc.stage(s), w, be.rot_keys);
    }
    if (cfg.normalize_output_scale && w.level >= 1) {
        w = ev.mult_const_to_scale(w, 1.0, env.ctx.delta());
    }
    EXPECT_TRUE(ct_equal(boot.bootstrap(ct), w));
}

} // namespace
} // namespace bts
