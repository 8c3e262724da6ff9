#include "math/ntt.h"

#include <algorithm>

#include "common/bit_ops.h"
#include "common/check.h"
#include "common/parallel.h"
#include "math/ifma.h"
#include "math/prime_gen.h"

namespace bts {

namespace {

/**
 * Output form of a butterfly run. Intermediate forward stages stay in
 * the full lazy domain [0, 4q); the final stage reduces to [0, 2q)
 * (lazy entry points) or [0, q) (canonical entry points). Inverse
 * stages maintain [0, 2q) throughout.
 */
enum class FwdOut
{
    kLazy4q,
    kLazy2q,
    kCanonical,
};

/**
 * One forward (DIT) Harvey butterfly run over @p count unit-stride
 * pairs sharing one twiddle: x' = x mod 2q; t = lazy Shoup y*w in
 * [0, 2q); outputs x'+t and x'-t+2q in [0, 4q), reduced per @p Out.
 * The twiddle, moduli, and output form are loop-invariant, and the body
 * is branch-free, so compilers can unroll/vectorize it directly.
 */
template <FwdOut Out>
inline void
fwd_run(u64* x, u64* y, std::size_t count, const ShoupMul s, u64 q,
        u64 two_q)
{
    for (std::size_t j = 0; j < count; ++j) {
        const u64 u = reduce_2q(x[j], two_q);
        const u64 t = s.mul_lazy(y[j], q);
        u64 xo = add_lazy(u, t);
        u64 yo = sub_lazy_2q(u, t, two_q);
        if constexpr (Out != FwdOut::kLazy4q) {
            xo = reduce_2q(xo, two_q);
            yo = reduce_2q(yo, two_q);
        }
        if constexpr (Out == FwdOut::kCanonical) {
            xo = xo >= q ? xo - q : xo;
            yo = yo >= q ? yo - q : yo;
        }
        x[j] = xo;
        y[j] = yo;
    }
}

/**
 * One inverse (GS) butterfly run in the [0, 2q) domain: x' = x+y mod 2q
 * (one conditional subtraction), y' = lazy Shoup (x-y+2q)*w in [0, 2q).
 */
inline void
inv_run(u64* x, u64* y, std::size_t count, const ShoupMul s, u64 q,
        u64 two_q)
{
    for (std::size_t j = 0; j < count; ++j) {
        const u64 u = x[j];
        const u64 v = y[j];
        x[j] = reduce_2q(add_lazy(u, v), two_q);
        y[j] = s.mul_lazy(sub_lazy_2q(u, v, two_q), q);
    }
}

/**
 * The final inverse stage with N^{-1} folded into its constants:
 * x' = (x+y) * n^{-1} and y' = (x-y) * (w * n^{-1}), both via full
 * Shoup products (exact for any 64-bit input), so the output is
 * canonical and the transform needs no scaling tail loop.
 */
inline void
inv_last_run(u64* x, u64* y, std::size_t count, const ShoupMul inv_n,
             const ShoupMul inv_n_w, u64 q, u64 two_q)
{
    for (std::size_t j = 0; j < count; ++j) {
        const u64 u = x[j];
        const u64 v = y[j];
        x[j] = inv_n.mul(add_lazy(u, v), q);
        y[j] = inv_n_w.mul(sub_lazy_2q(u, v, two_q), q);
    }
}

// ----- 52-bit butterflies (tables dispatched to IFMA52) -----------------
//
// The same Harvey domains as above, with the IFMA lazy Shoup product of
// math/ifma.h: its multiplicand must be below 2q (< 2^52), so the
// forward butterfly reduces Y and the inverse reduces X - Y + 2q before
// multiplying. Products land in [0, 2q) like the 64-bit lazy form, but
// may differ from it by q: lazy outputs are congruent, canonical outputs
// identical. Each butterfly below is the scalar emulation the vector
// kernels run on their sub-vector heads and tails, so any partition of
// a stage computes the same bits.

/** The 52-bit Shoup quotient floor(w * 2^52 / q) from the 64-bit one. */
inline u64
shoup52(const ShoupMul& s)
{
    return s.w_shoup >> 12;
}

template <FwdOut Out>
inline void
fwd_bfly52(u64& x, u64& y, const ShoupMul& s, u64 q, u64 two_q)
{
    const u64 u = reduce_2q(x, two_q);
    const u64 t = shoup52_lazy(reduce_2q(y, two_q), s.w, shoup52(s), q);
    u64 xo = add_lazy(u, t);
    u64 yo = sub_lazy_2q(u, t, two_q);
    if constexpr (Out != FwdOut::kLazy4q) {
        xo = reduce_2q(xo, two_q);
        yo = reduce_2q(yo, two_q);
    }
    if constexpr (Out == FwdOut::kCanonical) {
        xo = xo >= q ? xo - q : xo;
        yo = yo >= q ? yo - q : yo;
    }
    x = xo;
    y = yo;
}

inline void
inv_bfly52(u64& x, u64& y, const ShoupMul& s, u64 q, u64 two_q)
{
    const u64 u = x;
    const u64 v = y;
    x = reduce_2q(add_lazy(u, v), two_q);
    y = shoup52_lazy(reduce_2q(sub_lazy_2q(u, v, two_q), two_q), s.w,
                     shoup52(s), q);
}

inline void
inv_last_bfly52(u64& x, u64& y, const ShoupMul& inv_n,
                const ShoupMul& inv_n_w, u64 q, u64 two_q)
{
    const u64 u = x;
    const u64 v = y;
    const u64 xo = shoup52_lazy(reduce_2q(add_lazy(u, v), two_q), inv_n.w,
                                shoup52(inv_n), q);
    const u64 yo =
        shoup52_lazy(reduce_2q(sub_lazy_2q(u, v, two_q), two_q), inv_n_w.w,
                     shoup52(inv_n_w), q);
    x = xo >= q ? xo - q : xo;
    y = yo >= q ? yo - q : yo;
}

/** Butterfly @p b of a stage with half-width @p t: the pair
 *  (a[2gt + k], a[2gt + k + t]) for g = b / t, k = b mod t. */
inline u64*
bfly_x(u64* a, std::size_t t, std::size_t b)
{
    const std::size_t g = b / t;
    return a + 2 * g * t + (b - g * t);
}

template <FwdOut Out>
void
fwd_emul52(u64* a, std::size_t t, const ShoupMul* tw, std::size_t b0,
           std::size_t b1, u64 q)
{
    for (std::size_t b = b0; b < b1; ++b) {
        u64* x = bfly_x(a, t, b);
        fwd_bfly52<Out>(x[0], x[t], tw[b / t], q, 2 * q);
    }
}

void
inv_emul52(u64* a, std::size_t t, const ShoupMul* tw, std::size_t b0,
           std::size_t b1, u64 q)
{
    for (std::size_t b = b0; b < b1; ++b) {
        u64* x = bfly_x(a, t, b);
        inv_bfly52(x[0], x[t], tw[b / t], q, 2 * q);
    }
}

void
inv_last_emul52(u64* a, std::size_t t, const ShoupMul& inv_n,
                const ShoupMul& inv_n_w, std::size_t b0, std::size_t b1,
                u64 q)
{
    for (std::size_t b = b0; b < b1; ++b) {
        inv_last_bfly52(a[b], a[b + t], inv_n, inv_n_w, q, 2 * q);
    }
}

#if BTS_IFMA_COMPILED

/**
 * Lane shuffles of the t = 1, 2, 4 stages. Eight butterflies starting
 * at a multiple of 8 cover the 16 words a[2b .. 2b+16); with lo/hi the
 * two loaded halves, permutex2var(lo, x, hi) gathers the eight X words
 * and y the eight Y words; permutex2var(X, lo, Y) / (X, hi, Y) scatter
 * the results back. w and s pick each lane's twiddle word and Shoup
 * word from the group's ShoupMul entries (two loads for t = 1).
 */
struct StagePerm
{
    u64 x[8], y[8], lo[8], hi[8], w[8], s[8];
};

constexpr StagePerm
make_stage_perm(std::size_t t)
{
    StagePerm p{};
    for (std::size_t l = 0; l < 8; ++l) {
        const std::size_t g = l / t;
        p.x[l] = 2 * g * t + l % t;
        p.y[l] = p.x[l] + t;
        p.w[l] = 2 * g;
        p.s[l] = 2 * g + 1;
    }
    for (std::size_t e = 0; e < 16; ++e) {
        const std::size_t g = e / (2 * t);
        const std::size_t r = e % (2 * t);
        const u64 lane = r < t ? g * t + r : 8 + g * t + r - t;
        if (e < 8) {
            p.lo[e] = lane;
        } else {
            p.hi[e - 8] = lane;
        }
    }
    return p;
}

constexpr StagePerm kStagePerm[3] = {make_stage_perm(1), make_stage_perm(2),
                                     make_stage_perm(4)};

static_assert(sizeof(ShoupMul) == 2 * sizeof(u64),
              "twiddle loads read ShoupMul as {w, w_shoup} word pairs");

/** The shuffle vectors of one small-t stage, loaded once per call. */
struct SmallStage
{
    std::size_t t;
    __m512i x, y, lo, hi, w, s;

    BTS_IFMA_TARGET explicit SmallStage(std::size_t t_) : t(t_)
    {
        const StagePerm& p = kStagePerm[t == 1 ? 0 : t == 2 ? 1 : 2];
        x = ifma::load(p.x);
        y = ifma::load(p.y);
        lo = ifma::load(p.lo);
        hi = ifma::load(p.hi);
        w = ifma::load(p.w);
        s = ifma::load(p.s);
    }

    /** Split a[2b .. 2b+16) into its X and Y lanes. */
    BTS_IFMA_TARGET void
    gather(const u64* blk, __m512i& vx, __m512i& vy) const
    {
        const __m512i l = ifma::load(blk);
        const __m512i h = ifma::load(blk + 8);
        vx = _mm512_permutex2var_epi64(l, x, h);
        vy = _mm512_permutex2var_epi64(l, y, h);
    }

    BTS_IFMA_TARGET void
    scatter(u64* blk, __m512i vx, __m512i vy) const
    {
        ifma::store(blk, _mm512_permutex2var_epi64(vx, lo, vy));
        ifma::store(blk + 8, _mm512_permutex2var_epi64(vx, hi, vy));
    }

    /** Per-lane twiddle and 52-bit Shoup words of the 8/t groups
     *  starting at @p tw. */
    BTS_IFMA_TARGET void
    twiddles(const ShoupMul* tw, __m512i& vw, __m512i& vs) const
    {
        const u64* words = &tw->w;
        // 16/t words: a masked load for t = 4 stays inside the table.
        const __m512i v0 = t == 4 ? _mm512_maskz_loadu_epi64(0x0F, words)
                                  : ifma::load(words);
        const __m512i v1 = t == 1 ? ifma::load(words + 8) : v0;
        vw = _mm512_permutex2var_epi64(v0, w, v1);
        // maskz form: GCC 12 flags the undefined passthrough of
        // _mm512_srli_epi64 as -Wmaybe-uninitialized.
        vs = _mm512_maskz_srli_epi64(0xFF,
                                     _mm512_permutex2var_epi64(v0, s, v1),
                                     12);
    }
};

/** Moduli broadcast once per stage call. */
struct VecMod
{
    __m512i q, two_q, neg_q;

    BTS_IFMA_TARGET explicit VecMod(u64 m)
        : q(ifma::splat(m)), two_q(ifma::splat(2 * m)),
          neg_q(ifma::splat(0 - m))
    {}
};

template <FwdOut Out>
BTS_IFMA_TARGET inline void
fwd_bfly_v(__m512i& x, __m512i& y, __m512i w, __m512i ws, const VecMod& m)
{
    const __m512i u = ifma::csub(x, m.two_q);
    const __m512i t = ifma::shoup_lazy(ifma::csub(y, m.two_q), w, ws,
                                       m.neg_q);
    __m512i xo = _mm512_add_epi64(u, t);
    __m512i yo = _mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), t);
    if constexpr (Out != FwdOut::kLazy4q) {
        xo = ifma::csub(xo, m.two_q);
        yo = ifma::csub(yo, m.two_q);
    }
    if constexpr (Out == FwdOut::kCanonical) {
        xo = ifma::csub(xo, m.q);
        yo = ifma::csub(yo, m.q);
    }
    x = xo;
    y = yo;
}

BTS_IFMA_TARGET inline void
inv_bfly_v(__m512i& x, __m512i& y, __m512i w, __m512i ws, const VecMod& m)
{
    const __m512i u = x;
    const __m512i v = y;
    x = ifma::csub(_mm512_add_epi64(u, v), m.two_q);
    const __m512i d =
        ifma::csub(_mm512_sub_epi64(_mm512_add_epi64(u, m.two_q), v),
                   m.two_q);
    y = ifma::shoup_lazy(d, w, ws, m.neg_q);
}

/** Butterfly policies of stage_ifma: the vector body and the scalar
 *  emulation of the same 52-bit butterfly. */
template <FwdOut Out>
struct FwdStage
{
    BTS_IFMA_TARGET static void
    vec(__m512i& x, __m512i& y, __m512i w, __m512i ws, const VecMod& m)
    {
        fwd_bfly_v<Out>(x, y, w, ws, m);
    }

    static void
    emul(u64* a, std::size_t t, const ShoupMul* tw, std::size_t b0,
         std::size_t b1, u64 q)
    {
        fwd_emul52<Out>(a, t, tw, b0, b1, q);
    }
};

struct InvStage
{
    BTS_IFMA_TARGET static void
    vec(__m512i& x, __m512i& y, __m512i w, __m512i ws, const VecMod& m)
    {
        inv_bfly_v(x, y, w, ws, m);
    }

    static void
    emul(u64* a, std::size_t t, const ShoupMul* tw, std::size_t b0,
         std::size_t b1, u64 q)
    {
        inv_emul52(a, t, tw, b0, b1, q);
    }
};

/**
 * Stage butterflies [b0, b1) of half-width @p t; group g uses twiddle
 * tw[g]. t >= 8 runs 8 butterflies of one group per vector (from any
 * offset); t = 1, 2, 4 shuffle 8 butterflies of 8/t groups per vector,
 * at multiples of 8. Everything else is emulated.
 */
template <class Stage>
BTS_IFMA_TARGET void
stage_ifma(u64* a, std::size_t t, const ShoupMul* tw, std::size_t b0,
           std::size_t b1, u64 q)
{
    ifma::ZeroUpperOnExit clear_upper;
    const VecMod vm(q);
    if (t >= 8) {
        std::size_t b = b0;
        while (b < b1) {
            const std::size_t g = b / t;
            const std::size_t k = b - g * t;
            const std::size_t run = std::min(t - k, b1 - b);
            u64* x = a + 2 * g * t + k;
            u64* y = x + t;
            const __m512i w = ifma::splat(tw[g].w);
            const __m512i ws = ifma::splat(shoup52(tw[g]));
            std::size_t j = 0;
            for (; j + 8 <= run; j += 8) {
                __m512i vx = ifma::load(x + j);
                __m512i vy = ifma::load(y + j);
                Stage::vec(vx, vy, w, ws, vm);
                ifma::store(x + j, vx);
                ifma::store(y + j, vy);
            }
            Stage::emul(a, t, tw, b + j, b + run, q);
            b += run;
        }
        return;
    }
    const SmallStage st(t);
    std::size_t b = std::min(b1, (b0 + 7) & ~std::size_t{7});
    Stage::emul(a, t, tw, b0, b, q);
    for (; b + 8 <= b1; b += 8) {
        __m512i vx;
        __m512i vy;
        __m512i w;
        __m512i ws;
        st.gather(a + 2 * b, vx, vy);
        st.twiddles(tw + b / t, w, ws);
        Stage::vec(vx, vy, w, ws, vm);
        st.scatter(a + 2 * b, vx, vy);
    }
    Stage::emul(a, t, tw, b, b1, q);
}

template <FwdOut Out>
void
fwd_stage_ifma(u64* a, std::size_t t, const ShoupMul* tw, std::size_t b0,
               std::size_t b1, u64 q)
{
    stage_ifma<FwdStage<Out>>(a, t, tw, b0, b1, q);
}

void
inv_stage_ifma(u64* a, std::size_t t, const ShoupMul* tw, std::size_t b0,
               std::size_t b1, u64 q)
{
    stage_ifma<InvStage>(a, t, tw, b0, b1, q);
}

/** The fused-N^{-1} last inverse stage (one group of half-width t):
 *  butterflies [b0, b1), canonical output. */
BTS_IFMA_TARGET void
inv_last_stage_ifma(u64* a, std::size_t t, const ShoupMul& inv_n,
                    const ShoupMul& inv_n_w, std::size_t b0, std::size_t b1,
                    u64 q)
{
    ifma::ZeroUpperOnExit clear_upper;
    const VecMod vm(q);
    const __m512i nw = ifma::splat(inv_n.w);
    const __m512i nws = ifma::splat(shoup52(inv_n));
    const __m512i ww = ifma::splat(inv_n_w.w);
    const __m512i wws = ifma::splat(shoup52(inv_n_w));
    std::size_t b = b0;
    for (; b + 8 <= b1; b += 8) {
        const __m512i u = ifma::load(a + b);
        const __m512i v = ifma::load(a + b + t);
        const __m512i sum = ifma::csub(_mm512_add_epi64(u, v), vm.two_q);
        const __m512i diff = ifma::csub(
            _mm512_sub_epi64(_mm512_add_epi64(u, vm.two_q), v), vm.two_q);
        ifma::store(a + b,
                    ifma::csub(ifma::shoup_lazy(sum, nw, nws, vm.neg_q),
                               vm.q));
        ifma::store(a + b + t,
                    ifma::csub(ifma::shoup_lazy(diff, ww, wws, vm.neg_q),
                               vm.q));
    }
    inv_last_emul52(a, t, inv_n, inv_n_w, b, b1, q);
}

#else // !BTS_IFMA_COMPILED: NttTables never selects kIfma52 here.

template <FwdOut Out>
void
fwd_stage_ifma(u64* a, std::size_t t, const ShoupMul* tw, std::size_t b0,
               std::size_t b1, u64 q)
{
    fwd_emul52<Out>(a, t, tw, b0, b1, q);
}

void
inv_stage_ifma(u64* a, std::size_t t, const ShoupMul* tw, std::size_t b0,
               std::size_t b1, u64 q)
{
    inv_emul52(a, t, tw, b0, b1, q);
}

void
inv_last_stage_ifma(u64* a, std::size_t t, const ShoupMul& inv_n,
                    const ShoupMul& inv_n_w, std::size_t b0, std::size_t b1,
                    u64 q)
{
    inv_last_emul52(a, t, inv_n, inv_n_w, b0, b1, q);
}

#endif // BTS_IFMA_COMPILED

/** One forward stage m over butterflies [b0, b1) on an IFMA table;
 *  the last stage reduces per @p Out. */
template <FwdOut Out>
void
fwd_stage52(u64* a, std::size_t n, std::size_t m, const ShoupMul* psi_br,
            std::size_t b0, std::size_t b1, u64 q)
{
    const std::size_t t = n / (2 * m);
    if ((m << 1) == n) {
        fwd_stage_ifma<Out>(a, t, psi_br + m, b0, b1, q);
    } else {
        fwd_stage_ifma<FwdOut::kLazy4q>(a, t, psi_br + m, b0, b1, q);
    }
}

} // namespace

NttTables::NttTables(std::size_t n, u64 prime)
    : NttTables(n, prime, dispatch_isa(prime))
{}

NttTables::NttTables(std::size_t n, u64 prime, KernelIsa isa)
    : n_(n), log_n_(log2_exact(n)), prime_(prime), isa_(isa)
{
    BTS_CHECK(is_power_of_two(n), "NTT size must be a power of two");
    BTS_CHECK(prime % (2 * n) == 1, "prime must be 1 mod 2N");
    BTS_CHECK((prime >> kMaxModulusBits) == 0,
              "modulus exceeds kMaxModulusBits — the Harvey lazy domain "
              "[0, 4q) requires q < 2^62");
    BTS_CHECK(isa == KernelIsa::kScalar ||
                  dispatch_isa(prime) == KernelIsa::kIfma52,
              "IFMA52 kernels need CPU support and a modulus below 2^51");

    psi_ = find_primitive_root(prime, 2 * static_cast<u64>(n));
    const u64 psi_inv = inv_mod(psi_, prime);
    n_inv_ = inv_mod(static_cast<u64>(n) % prime, prime);

    // Power chains stay reduced throughout: one Barrett product per
    // step (no 128-bit remainder), and the twiddles enter ShoupMul via
    // from_reduced (no per-entry 64-bit remainder either).
    const Barrett br(prime);
    psi_br_.resize(n);
    psi_inv_br_.resize(n);
    u64 power = 1;
    u64 power_inv = 1;
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t rev = bit_reverse(i, log_n_);
        psi_br_[rev] = ShoupMul::from_reduced(power, prime);
        psi_inv_br_[rev] = ShoupMul::from_reduced(power_inv, prime);
        power = br.mul(power, psi_);
        power_inv = br.mul(power_inv, psi_inv);
    }

    // Fused last-stage inverse constants (N^{-1} absorbed).
    inv_n_ = ShoupMul::from_reduced(n_inv_, prime);
    inv_n_w_ = n > 1 ? ShoupMul::from_reduced(br.mul(psi_inv_br_[1].w,
                                                     n_inv_),
                                              prime)
                     : inv_n_;
}

namespace {

template <FwdOut Out>
void
forward_impl(u64* a, std::size_t n, const ShoupMul* psi_br, u64 q)
{
    const u64 two_q = 2 * q;
    std::size_t t = n;
    for (std::size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        const bool last = (m << 1) == n;
        for (std::size_t i = 0; i < m; ++i) {
            u64* x = a + 2 * i * t;
            const ShoupMul& s = psi_br[m + i];
            if (last) {
                fwd_run<Out>(x, x + t, t, s, q, two_q);
            } else {
                fwd_run<FwdOut::kLazy4q>(x, x + t, t, s, q, two_q);
            }
        }
    }
}

/** The whole forward transform on an IFMA table, stage by stage. */
template <FwdOut Out>
void
forward52(u64* a, std::size_t n, const ShoupMul* psi_br, u64 q)
{
    for (std::size_t m = 1; m < n; m <<= 1) {
        fwd_stage52<Out>(a, n, m, psi_br, 0, n / 2, q);
    }
}

} // namespace

void
NttTables::forward(u64* a) const
{
    if (isa_ == KernelIsa::kIfma52) {
        forward52<FwdOut::kCanonical>(a, n_, psi_br_.data(), prime_);
    } else {
        forward_impl<FwdOut::kCanonical>(a, n_, psi_br_.data(), prime_);
    }
}

void
NttTables::forward_lazy(u64* a) const
{
    if (isa_ == KernelIsa::kIfma52) {
        forward52<FwdOut::kLazy2q>(a, n_, psi_br_.data(), prime_);
    } else {
        forward_impl<FwdOut::kLazy2q>(a, n_, psi_br_.data(), prime_);
    }
}

void
NttTables::inverse(u64* a) const
{
    if (isa_ == KernelIsa::kIfma52) {
        for (std::size_t m = n_; m > 1; m >>= 1) {
            inverse_stage(a, m, 0, n_ / 2);
        }
        return;
    }
    const u64 q = prime_;
    const u64 two_q = 2 * q;
    std::size_t t = 1;
    for (std::size_t m = n_; m > 2; m >>= 1) {
        const std::size_t h = m >> 1;
        std::size_t j1 = 0;
        for (std::size_t i = 0; i < h; ++i) {
            u64* x = a + j1;
            inv_run(x, x + t, t, psi_inv_br_[h + i], q, two_q);
            j1 += 2 * t;
        }
        t <<= 1;
    }
    if (n_ >= 2) {
        inv_last_run(a, a + n_ / 2, n_ / 2, inv_n_, inv_n_w_, q, two_q);
    }
}

void
NttTables::forward_stage(u64* a, std::size_t m, std::size_t b_begin,
                         std::size_t b_end, bool lazy_output) const
{
    // Stage m has m groups of t butterflies; butterfly b lives in group
    // g = b / t at offset k, pairing a[2gt + k] with a[2gt + k + t].
    if (isa_ == KernelIsa::kIfma52) {
        if (lazy_output) {
            fwd_stage52<FwdOut::kLazy2q>(a, n_, m, psi_br_.data(), b_begin,
                                         b_end, prime_);
        } else {
            fwd_stage52<FwdOut::kCanonical>(a, n_, m, psi_br_.data(),
                                            b_begin, b_end, prime_);
        }
        return;
    }
    const u64 q = prime_;
    const u64 two_q = 2 * q;
    const std::size_t t = n_ / (2 * m);
    const bool last = (m << 1) == n_;
    std::size_t b = b_begin;
    while (b < b_end) {
        const std::size_t g = b / t;
        const std::size_t k = b - g * t;
        const std::size_t run = std::min(t - k, b_end - b);
        const ShoupMul& s = psi_br_[m + g];
        u64* x = a + 2 * g * t + k;
        u64* y = x + t;
        if (!last) {
            fwd_run<FwdOut::kLazy4q>(x, y, run, s, q, two_q);
        } else if (lazy_output) {
            fwd_run<FwdOut::kLazy2q>(x, y, run, s, q, two_q);
        } else {
            fwd_run<FwdOut::kCanonical>(x, y, run, s, q, two_q);
        }
        b += run;
    }
}

void
NttTables::inverse_stage(u64* a, std::size_t m, std::size_t b_begin,
                         std::size_t b_end) const
{
    const u64 q = prime_;
    const u64 two_q = 2 * q;
    const std::size_t t = n_ / m;
    const std::size_t h = m >> 1;
    const bool last = m == 2;
    if (isa_ == KernelIsa::kIfma52) {
        if (last) {
            inv_last_stage_ifma(a, t, inv_n_, inv_n_w_, b_begin, b_end, q);
        } else {
            inv_stage_ifma(a, t, psi_inv_br_.data() + h, b_begin, b_end, q);
        }
        return;
    }
    std::size_t b = b_begin;
    while (b < b_end) {
        const std::size_t g = b / t;
        const std::size_t k = b - g * t;
        const std::size_t run = std::min(t - k, b_end - b);
        u64* x = a + 2 * g * t + k;
        u64* y = x + t;
        if (last) {
            inv_last_run(x, y, run, inv_n_, inv_n_w_, q, two_q);
        } else {
            inv_run(x, y, run, psi_inv_br_[h + g], q, two_q);
        }
        b += run;
    }
}

void
NttTables::forward_oracle(u64* a) const
{
    const u64 q = prime_;
    std::size_t t = n_;
    for (std::size_t m = 1; m < n_; m <<= 1) {
        t >>= 1;
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const ShoupMul& s = psi_br_[m + i];
            for (std::size_t j = j1; j < j1 + t; ++j) {
                const u64 u = a[j];
                const u64 v = s.mul(a[j + t], q);
                a[j] = add_mod(u, v, q);
                a[j + t] = sub_mod(u, v, q);
            }
        }
    }
}

void
NttTables::inverse_oracle(u64* a) const
{
    const u64 q = prime_;
    std::size_t t = 1;
    for (std::size_t m = n_; m > 1; m >>= 1) {
        std::size_t j1 = 0;
        const std::size_t h = m >> 1;
        for (std::size_t i = 0; i < h; ++i) {
            const ShoupMul& s = psi_inv_br_[h + i];
            for (std::size_t j = j1; j < j1 + t; ++j) {
                const u64 u = a[j];
                const u64 v = a[j + t];
                a[j] = add_mod(u, v, q);
                a[j + t] = s.mul(sub_mod(u, v, q), q);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (std::size_t j = 0; j < n_; ++j) {
        a[j] = inv_n_.mul(a[j], q);
    }
}

namespace {

/**
 * Below this N a stage split costs more in barriers than it buys:
 * parallel_for_2d's >=1024-coefficient blocks mean the N/2 butterflies
 * of a stage only split into multiple tiles once N >= 4096.
 */
constexpr std::size_t kStageParallelMinN = 4096;

bool
use_whole_limb_schedule(std::size_t count, std::size_t n)
{
    // Whole-limb transforms are one cache-friendly pass per limb; only
    // trade them for log2(N) barrier-separated stage sweeps when they
    // would leave at least half the lanes idle (the 1-3 limb regime the
    // split exists for), not at count = lanes-1 where utilization is
    // already near full.
    const auto lanes = static_cast<std::size_t>(num_threads());
    return lanes <= 1 || 2 * count > lanes || n < kStageParallelMinN;
}

void
check_batch(const NttTables* const* tables, std::size_t count,
            std::size_t stride, std::size_t n)
{
    BTS_ASSERT(stride >= n, "batch stride smaller than transform size");
    for (std::size_t i = 1; i < count; ++i) {
        BTS_ASSERT(tables[i]->n() == n, "mixed transform sizes in batch");
    }
}

void
forward_batch_impl(const NttTables* const* tables, u64* data,
                   std::size_t count, std::size_t stride, bool lazy)
{
    if (count == 0) return;
    const std::size_t n = tables[0]->n();
    check_batch(tables, count, stride, n);
    if (use_whole_limb_schedule(count, n)) {
        parallel_for(0, count, [&](std::size_t i) {
            if (lazy) {
                tables[i]->forward_lazy(data + i * stride);
            } else {
                tables[i]->forward(data + i * stride);
            }
        });
        return;
    }
    // Fewer limbs than lanes: run stage by stage, each stage a 2-D
    // (limb x butterfly-block) sweep. Stages are barriers — butterflies
    // of stage m read results of stage m/2.
    const std::size_t half = n / 2;
    for (std::size_t m = 1; m < n; m <<= 1) {
        parallel_for_2d(count, half,
                        [&](std::size_t i, std::size_t b0, std::size_t b1) {
                            tables[i]->forward_stage(data + i * stride, m,
                                                     b0, b1, lazy);
                        });
    }
}

} // namespace

void
ntt_forward_batch(const NttTables* const* tables, u64* data,
                  std::size_t count, std::size_t stride)
{
    forward_batch_impl(tables, data, count, stride, /*lazy=*/false);
}

void
ntt_forward_batch_lazy(const NttTables* const* tables, u64* data,
                       std::size_t count, std::size_t stride)
{
    forward_batch_impl(tables, data, count, stride, /*lazy=*/true);
}

void
ntt_inverse_batch(const NttTables* const* tables, u64* data,
                  std::size_t count, std::size_t stride)
{
    if (count == 0) return;
    const std::size_t n = tables[0]->n();
    check_batch(tables, count, stride, n);
    if (use_whole_limb_schedule(count, n)) {
        parallel_for(0, count, [&](std::size_t i) {
            tables[i]->inverse(data + i * stride);
        });
        return;
    }
    // N^{-1} rides in the final stage's fused twiddles, so the stage
    // sweep IS the whole transform — no trailing scale pass.
    const std::size_t half = n / 2;
    for (std::size_t m = n; m > 1; m >>= 1) {
        parallel_for_2d(count, half,
                        [&](std::size_t i, std::size_t b0, std::size_t b1) {
                            tables[i]->inverse_stage(data + i * stride, m,
                                                     b0, b1);
                        });
    }
}

std::vector<u64>
negacyclic_mul_reference(const std::vector<u64>& a, const std::vector<u64>& b,
                         u64 q)
{
    BTS_CHECK(a.size() == b.size(), "size mismatch");
    const std::size_t n = a.size();
    std::vector<u64> out(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] == 0) continue;
        for (std::size_t j = 0; j < n; ++j) {
            const u64 prod = mul_mod(a[i], b[j], q);
            const std::size_t k = i + j;
            if (k < n) {
                out[k] = add_mod(out[k], prod, q);
            } else {
                out[k - n] = sub_mod(out[k - n], prod, q);
            }
        }
    }
    return out;
}

} // namespace bts
