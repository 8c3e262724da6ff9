#include "workloads/workloads.h"

#include <algorithm>
#include <cmath>

#include "common/bit_ops.h"

namespace bts::workloads {

using sim::HeOpKind;
using sim::TraceBuilder;

namespace {

/** Radix bit-split of the 3-stage FFT decomposition. */
void
radix_bits(const CkksInstance& inst, int out[3])
{
    const int log_slots = log2_exact(inst.slots());
    out[0] = (log_slots + 2) / 3;
    out[1] = (log_slots + 1) / 3;
    out[2] = log_slots / 3;
}

/** One decomposed linear-transform stage (CtS or StC). */
int
append_lt_stage(TraceBuilder& b, const CkksInstance& /*inst*/, int ct,
                int level, int radix, int rot_seed)
{
    // BSGS over the stage's `radix` diagonals: ~sqrt(radix) baby
    // rotations stay LIVE throughout the stage (this is the ct working
    // set that pressures the scratchpad in Fig. 7a/Fig. 10), diagonal
    // products and partial sums accumulate in place, and each giant
    // step adds one more rotation.
    const int babies = static_cast<int>(std::ceil(std::sqrt(radix)));
    const int giants = (radix + babies - 1) / babies;
    std::vector<int> baby_ids;
    for (int r = 0; r < babies; ++r) {
        baby_ids.push_back(
            b.add(HeOpKind::kHRot, level, {ct}, rot_seed + r + 1, true));
    }
    const int prod = b.fresh_id();
    int acc = -1;
    for (int g = 0; g < giants; ++g) {
        for (int d = 0; d < babies && g * babies + d < radix; ++d) {
            b.add_into(prod, HeOpKind::kPMult, level, {baby_ids[d]}, 0,
                       true);
            if (acc < 0) {
                acc = b.add(HeOpKind::kHAdd, level, {prod, prod}, 0, true);
            } else {
                b.add_into(acc, HeOpKind::kHAdd, level, {acc, prod}, 0,
                           true);
            }
        }
        if (g > 0) {
            b.add_into(acc, HeOpKind::kHRot, level, {acc},
                       rot_seed + 50 + g, true);
        }
    }
    return b.add_into(acc, HeOpKind::kHRescale, level, {acc}, 0, true);
}

/** EvalMod: PS-BSGS Chebyshev evaluation spread over its level span. */
int
append_eval_mod(TraceBuilder& b, const CkksInstance& inst, int ct,
                int top_level, int levels)
{
    constexpr int kHMults = 15; // babies + giants + recombination
    // The Chebyshev power basis keeps ~8 T_j ciphertexts live.
    std::vector<int> basis;
    for (int t = 0; t < 8; ++t) basis.push_back(b.fresh_id());
    for (int m = 0; m < kHMults; ++m) {
        const int lvl =
            std::max(1, top_level - (m * levels) / kHMults);
        const int lhs = basis[m % basis.size()];
        const int rhs = basis[(m + 1) % basis.size()];
        b.add_into(ct, HeOpKind::kHMult, lvl, {lhs, rhs}, 0, true);
        b.add_into(ct, HeOpKind::kHRescale, lvl, {ct}, 0, true);
        if (m % 3 == 0) {
            b.add_into(ct, HeOpKind::kCMult, lvl, {ct}, 0, true);
            b.add_into(ct, HeOpKind::kCAdd, lvl, {ct}, 0, true);
        }
        b.add_into(basis[m % basis.size()], HeOpKind::kHAdd, lvl,
                   {ct, ct}, 0, true);
    }
    (void)inst;
    return ct;
}

} // namespace

int
append_bootstrap(TraceBuilder& b, const CkksInstance& inst, int ct_id)
{
    const int l_top = inst.max_level;
    int bits[3];
    radix_bits(inst, bits);

    // 1. ModRaise.
    int ct = b.add(HeOpKind::kModRaise, l_top, {ct_id}, 0, true);

    // 2. CoeffToSlot: three decomposed stages.
    for (int s = 0; s < 3; ++s) {
        ct = append_lt_stage(b, inst, ct, l_top - s, 1 << bits[s],
                             s * 100);
    }

    // 3. Real/imaginary split.
    const int conj = b.add(HeOpKind::kConj, l_top - 3, {ct}, 0, true);
    const int u_re = b.add(HeOpKind::kHAdd, l_top - 3, {ct, conj}, 0, true);
    const int u_im = b.add(HeOpKind::kHAdd, l_top - 3, {ct, conj}, 0, true);

    // 4. EvalMod on both components.
    const int em_levels = inst.boot_levels - 6;
    const int em_top = l_top - 3;
    const int v_re = append_eval_mod(b, inst, u_re, em_top, em_levels);
    const int v_im = append_eval_mod(b, inst, u_im, em_top, em_levels);
    int merged = b.add(HeOpKind::kHAdd, em_top - em_levels,
                       {v_re, v_im}, 0, true);

    // 5. SlotToCoeff: three stages at the bottom of the budget.
    const int stc_top = l_top - inst.boot_levels + 3;
    for (int s = 0; s < 3; ++s) {
        merged = append_lt_stage(b, inst, merged, stc_top - s,
                                 1 << bits[s], 300 + s * 100);
    }
    b.trace().bootstrap_count += 1;
    return merged;
}

Trace
helr(const CkksInstance& inst, int iterations)
{
    // One training iteration (the circuit runtime/apps/helr.cpp also
    // executes functionally; tests/runtime/test_apps_pin.cpp pins the
    // two against each other):
    //   u   = sum_c <w, X_c>          inner products, log-tree sums
    //   s   = 0.5 + c1 u + c3 u^3     degree-3 minimax sigmoid
    //   w  += lr * s * Xbar           gradient step (lr in the plaintext)
    // = kLevelsPerIter multiplicative levels per iteration.
    TraceBuilder b("helr/" + inst.name);
    constexpr int kLevelsPerIter = 5;
    constexpr int kDataCts = 3; // 1024 x 196 batch needs 3 packed cts
    constexpr int kLogFeatures = 8;

    int weights = b.fresh_id();
    int lw = inst.usable_levels();
    for (int iter = 0; iter < iterations; ++iter) {
        if (lw < kLevelsPerIter + 1) {
            // Refresh the model state.
            weights = append_bootstrap(b, inst, weights);
            lw = inst.usable_levels();
        }
        // Inner products X * w: rotations + plaintext batch multiplies.
        std::vector<int> partials;
        for (int c = 0; c < kDataCts; ++c) {
            int acc = b.add(HeOpKind::kPMult, lw, {weights});
            for (int r = 0; r < kLogFeatures; ++r) { // sum over features
                const int rot =
                    b.add(HeOpKind::kHRot, lw, {acc}, 1 << r);
                acc = b.add(HeOpKind::kHAdd, lw, {acc, rot});
            }
            partials.push_back(acc);
        }
        int u = partials[0];
        for (int c = 1; c < kDataCts; ++c) {
            u = b.add(HeOpKind::kHAdd, lw, {u, partials[c]});
        }
        u = b.add(HeOpKind::kHRescale, lw, {u});
        const int lu = lw - 1;

        // Degree-3 sigmoid as u * (c3 u^2 + c1) + 0.5.
        int u2 = b.add(HeOpKind::kHMult, lu, {u, u});
        u2 = b.add(HeOpKind::kHRescale, lu, {u2});
        int t = b.add(HeOpKind::kCMult, lu - 1, {u2});
        t = b.add(HeOpKind::kCAdd, lu - 1, {t});
        t = b.add(HeOpKind::kHRescale, lu - 1, {t});
        int sig = b.add(HeOpKind::kHMult, lu - 2, {t, u});
        sig = b.add(HeOpKind::kHRescale, lu - 2, {sig});
        sig = b.add(HeOpKind::kCAdd, lu - 3, {sig});

        // Gradient step: learning rate folded into the batch-mean
        // plaintext, then accumulate into the weights.
        int v = b.add(HeOpKind::kPMult, lu - 3, {sig});
        v = b.add(HeOpKind::kHRescale, lu - 3, {v});
        weights = b.add(HeOpKind::kHAdd, lu - 4, {weights, v});
        lw -= kLevelsPerIter;
    }
    return b.trace();
}

Trace
resnet20(const CkksInstance& inst)
{
    TraceBuilder b("resnet20/" + inst.name);
    constexpr int kLayers = 20;

    int act = b.fresh_id(); // channel-packed activation ciphertext
    int level = inst.usable_levels();

    // A layer burst: (level cost, op emitter).
    auto ensure = [&](int needed) {
        if (level < needed + 1) {
            act = append_bootstrap(b, inst, act);
            level = inst.usable_levels();
        }
    };

    for (int layer = 0; layer < kLayers; ++layer) {
        // Convolution (channel packing [50]): 3x3 kernel -> 9 rotations
        // x 2 halves, plaintext weight multiplies, a product tree (the
        // tap products all sit at delta^2, so they sum scale-
        // consistently before the single rescale); 3 levels.
        for (int step = 0; step < 3; ++step) {
            ensure(1);
            int acc = -1;
            for (int r = 0; r < 6; ++r) {
                const int rot =
                    b.add(HeOpKind::kHRot, level, {act}, r + 1);
                const int prod = b.add(HeOpKind::kPMult, level, {rot});
                acc = acc < 0
                          ? prod
                          : b.add(HeOpKind::kHAdd, level, {acc, prod});
            }
            act = b.add(HeOpKind::kHRescale, level, {acc});
            level -= 1;
        }
        // BatchNorm fold: scalar multiply-add, 2 levels.
        for (int step = 0; step < 2; ++step) {
            ensure(1);
            act = b.add(HeOpKind::kCMult, level, {act});
            act = b.add(HeOpKind::kCAdd, level, {act});
            act = b.add(HeOpKind::kHRescale, level, {act});
            level -= 1;
        }
        // ReLU: composite minimax polynomial (deg {15,15,27} [57]),
        // 14 levels of squaring-dominated evaluation.
        for (int step = 0; step < 14; ++step) {
            ensure(1);
            act = b.add(HeOpKind::kHMult, level, {act, act});
            if (step % 2 == 0) {
                act = b.add(HeOpKind::kCAdd, level, {act});
            }
            act = b.add(HeOpKind::kHRescale, level, {act});
            level -= 1;
        }
    }
    // Final pooling + FC layer.
    for (int r = 0; r < 6; ++r) {
        if (level < 2) {
            act = append_bootstrap(b, inst, act);
            level = inst.usable_levels();
        }
        const int rot = b.add(HeOpKind::kHRot, level, {act}, 1 << r);
        act = b.add(HeOpKind::kHAdd, level, {act, rot});
    }
    b.add(HeOpKind::kPMult, level, {act});
    return b.trace();
}

Trace
sorting(const CkksInstance& inst, int log_elements, int sign_rounds)
{
    // 2-way bitonic network, k(k+1)/2 masked compare-exchange stages.
    // Each stage, per slot i with partner at distance d:
    //   partner = mask_lo * rot(v,+d) + mask_hi * rot(v,-d)
    //   s = v + partner;  dif = v - partner;  sg = sign(dif/2)
    //     (sign via `sign_rounds` iterations of g(x) = 1.5x - 0.5x^3,
    //      the composite-minimax g-kernel of [42]; 3 levels per round)
    //   v' = 0.5*s + eps * sg * 0.5*dif   (eps = +-1 direction mask)
    // The same recipe is built as a runtime graph by
    // runtime/apps/sort.cpp — which also runs it functionally — and
    // tests/runtime/test_apps_pin.cpp pins the two traces against each
    // other (op histogram + bootstrap count). Mirror structural edits.
    TraceBuilder b("sorting/" + inst.name);
    const int usable = inst.usable_levels();

    int v = b.fresh_id();
    int lv = usable; // graph-rule value level of v (min/-1/refresh)

    for (int phase = 1; phase <= log_elements; ++phase) {
        for (int sub = phase - 1; sub >= 0; --sub) {
            const int d = 1 << sub;
            // Entry refresh: the front end burns 2 levels and the
            // select path 2 more below the sign output; lv >= 4 keeps
            // every op at level >= 1.
            if (lv < 4) {
                v = append_bootstrap(b, inst, v);
                lv = usable;
            }
            const int p1 = b.add(HeOpKind::kHRot, lv, {v}, d);
            const int p2 = b.add(HeOpKind::kHRot, lv, {v}, -d);
            const int a1 = b.add(HeOpKind::kPMult, lv, {p1});
            const int a2 = b.add(HeOpKind::kPMult, lv, {p2});
            int partner = b.add(HeOpKind::kHAdd, lv, {a1, a2});
            partner = b.add(HeOpKind::kHRescale, lv, {partner});
            // v +- partner (HSub lowers to the cost-identical HAdd).
            const int s = b.add(HeOpKind::kHAdd, lv - 1, {v, partner});
            const int dif = b.add(HeOpKind::kHAdd, lv - 1, {v, partner});
            int sg = b.add(HeOpKind::kCMult, lv - 1, {dif});
            sg = b.add(HeOpKind::kHRescale, lv - 1, {sg});
            int ls = lv - 2; // sign iterate's own level chain

            for (int round = 0; round < sign_rounds; ++round) {
                if (ls < 4) {
                    // Mid-polynomial refresh of the sign iterate alone.
                    sg = append_bootstrap(b, inst, sg);
                    ls = usable;
                }
                int m = b.add(HeOpKind::kHMult, ls, {sg, sg});
                m = b.add(HeOpKind::kHRescale, ls, {m});
                int t = b.add(HeOpKind::kCMult, ls - 1, {m});
                t = b.add(HeOpKind::kCAdd, ls - 1, {t});
                t = b.add(HeOpKind::kHRescale, ls - 1, {t});
                sg = b.add(HeOpKind::kHMult, ls - 2, {t, sg});
                sg = b.add(HeOpKind::kHRescale, ls - 2, {sg});
                ls -= 3;
            }
            if (ls < 3) {
                sg = append_bootstrap(b, inst, sg);
                ls = usable;
            }

            // Select: v' = 0.5*s + (0.5*eps) * (sg * dif).
            int w1 = b.add(HeOpKind::kCMult, lv - 1, {s});
            w1 = b.add(HeOpKind::kHRescale, lv - 1, {w1});
            const int lmin = std::min(ls, lv - 1);
            int u = b.add(HeOpKind::kHMult, lmin, {sg, dif});
            u = b.add(HeOpKind::kHRescale, lmin, {u});
            int w2 = b.add(HeOpKind::kPMult, lmin - 1, {u});
            w2 = b.add(HeOpKind::kHRescale, lmin - 1, {w2});
            lv = std::min(lv - 2, lmin - 2);
            v = b.add(HeOpKind::kHAdd, lv, {w1, w2});
        }
    }
    return b.trace();
}

} // namespace bts::workloads
