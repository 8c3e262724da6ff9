#include "layers.h"

#include "common/parallel.h"
#include "common/random.h"
#include "spans.h"

namespace e2e {

namespace rt = bts::runtime;

namespace {

/** Median milliseconds of @p reps calls of @p fn, each under a span. */
template <typename F>
double
median_ms(const char* span, int reps, F&& fn)
{
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const TraceSpan s(span);
        const Clock::time_point t0 = Clock::now();
        fn();
        ms.push_back(seconds_since(t0) * 1e3);
    }
    return percentile(ms, 50);
}

bts::RnsPoly
random_poly(std::size_t n, const std::vector<u64>& primes, u64 seed)
{
    bts::RnsPoly p(n, primes, bts::Domain::kCoeff);
    bts::Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < primes.size(); ++i) {
        u64* c = p.data() + i * n;
        for (std::size_t j = 0; j < n; ++j) c[j] = rng.uniform(primes[i]);
    }
    return p;
}

double
ratio(std::size_t num, std::size_t den)
{
    return den == 0 ? 0
                    : static_cast<double>(num) / static_cast<double>(den);
}

} // namespace

std::vector<Metric>
eval_layer(CkksEnv& env, const bts::EvalKey& rot1, u64 seed, int threads)
{
    const bts::Evaluator& ev = env.eval;
    const bts::CkksContext& ctx = env.ctx;
    const std::size_t n = ctx.n();
    const int top = ctx.max_level();
    const int reps = n >= (1u << 16) ? 3 : 15;
    const std::size_t slots = env.encoder.max_slots();
    std::vector<Metric> out;

    struct Level
    {
        const char* tag;
        int level;
    };
    const Level levels[] = {{"top", top}, {"mid", top / 2}, {"low", 2}};
    for (int i = 0; i < 3; ++i) {
        const Level& lv = levels[i];
        const Ciphertext a = env.encrypt(unit_vec(slots, seed + 1), lv.level);
        const Ciphertext b = env.encrypt(unit_vec(slots, seed + 2), lv.level);
        Ciphertext prod;
        const double hmult = median_ms("ckks/evaluator.mult", reps, [&] {
            prod = ev.mult(a, b, env.mult_key);
        });
        std::vector<double> rescale_ms;
        for (int r = 0; r < reps; ++r) {
            Ciphertext c = prod;
            rescale_ms.push_back(median_ms("ckks/evaluator.rescale", 1,
                                           [&] { ev.rescale_inplace(c); }));
        }
        const double hrot = median_ms("ckks/evaluator.rotate", reps,
                                      [&] { (void)ev.rotate(a, 1, rot1); });
        const std::string tag = lv.tag;
        out.push_back(scalar("eval.hmult_ms." + tag, "ms", hmult));
        out.push_back(scalar("eval.hrot_ms." + tag, "ms", hrot));
        out.push_back(scalar("eval.rescale_ms." + tag, "ms",
                             percentile(rescale_ms, 50)));
        if (i == 1) continue;
        const double ks = median_ms("ckks/evaluator.key_switch", reps, [&] {
            (void)ev.key_switch(a.a, env.mult_key, lv.level);
        });
        out.push_back(scalar("eval.keyswitch_ms." + tag, "ms", ks));
        if (i != 0) continue;
        const std::vector<int> amounts(8, 1);
        const std::vector<const bts::EvalKey*> keys(8, &rot1);
        const double hoisted =
            median_ms("ckks/evaluator.rotate_hoisted", std::max(2, reps / 3),
                      [&] { (void)ev.rotate_hoisted(a, amounts, keys); });
        out.push_back(scalar("eval.hoisted_rot_ms_per_amount.top", "ms",
                             hoisted / 8));
        // Evaluation-key bytes one key switch at this level reads.
        const double evk_bytes =
            static_cast<double>(ctx.num_slices(lv.level)) * 2 *
            static_cast<double>(lv.level + 1 + ctx.alpha()) *
            static_cast<double>(n) * 8;
        out.push_back(scalar("eval.evk_GBps_computed.top", "GB/s",
                             evk_bytes / (ks * 1e-3) / 1e9));
    }

    // common/parallel: the top and low HMults on 1 limb-pool thread
    // against 4.
    for (const int i : {0, 2}) {
        const Ciphertext a =
            env.encrypt(unit_vec(slots, seed + 1), levels[i].level);
        const Ciphertext b =
            env.encrypt(unit_vec(slots, seed + 2), levels[i].level);
        double ms[2] = {};
        for (const int t : {0, 1}) {
            bts::set_num_threads(t == 0 ? 1 : 4);
            ms[t] = median_ms(t == 0 ? "ckks/evaluator.mult[1 thread]"
                                     : "ckks/evaluator.mult[4 threads]",
                              reps,
                              [&] { (void)ev.mult(a, b, env.mult_key); });
        }
        out.push_back(scalar(std::string("parallel.speedup.hmult_") +
                                 levels[i].tag,
                             "x", ms[0] / ms[1]));
    }
    bts::set_num_threads(threads);

    // math + rns kernels at N and the top-level limb count.
    const std::vector<u64> primes = ctx.level_primes(top);
    const auto& tables = ctx.level_tables(top);
    const bts::RnsPoly base = random_poly(n, primes, seed + 3);
    const double limb_bytes = static_cast<double>(n) * 8;
    const double limbs = static_cast<double>(primes.size());
    const int kernel_reps = n >= (1u << 16) ? 9 : 31;
    std::vector<double> fwd, inv;
    for (int r = 0; r < kernel_reps; ++r) {
        bts::RnsPoly p = base;
        fwd.push_back(median_ms("math/ntt.forward", 1,
                                [&] { p.to_ntt(tables); }));
        inv.push_back(median_ms("math/ntt.inverse", 1,
                                [&] { p.to_coeff(tables); }));
    }
    const double fwd_ms = percentile(fwd, 50);
    out.push_back(scalar("ntt.fwd_ms", "ms", fwd_ms));
    out.push_back(scalar("ntt.inv_ms", "ms", percentile(inv, 50)));
    out.push_back(scalar(
        "ntt.butterflies_per_s", "1/s",
        limbs * static_cast<double>(tables[0]->butterfly_count()) /
            (fwd_ms * 1e-3)));

    // BConv in the ModUp shape: slice 0 onto the rest of the level
    // primes plus the special primes.
    const auto [b0, e0] = ctx.slice_range(0, top);
    const std::vector<u64> src(primes.begin() + b0, primes.begin() + e0);
    std::vector<u64> dst;
    for (int i = 0; i < static_cast<int>(primes.size()); ++i) {
        if (i < b0 || i >= e0) {
            dst.push_back(primes[static_cast<std::size_t>(i)]);
        }
    }
    for (const u64 p : ctx.p_primes()) dst.push_back(p);
    const bts::BaseConverter& conv = ctx.converter(src, dst);
    const bts::RnsPoly slice = random_poly(n, src, seed + 4);
    const double bconv_ms = median_ms("rns/base_conv.convert", kernel_reps,
                                      [&] { (void)conv.convert(slice); });
    out.push_back(scalar("bconv.ms", "ms", bconv_ms));
    out.push_back(scalar(
        "bconv.computed_GBps", "GB/s",
        static_cast<double>(src.size() + dst.size()) * limb_bytes /
            (bconv_ms * 1e-3) / 1e9));

    // Random residues stand in for NTT-domain operands.
    bts::RnsPoly factor = base;
    factor.set_domain(bts::Domain::kNtt);
    bts::RnsPoly acc = factor;
    const double mul_ms = median_ms("rns/rns_poly.mul_inplace", kernel_reps,
                                    [&] { acc.mul_inplace(factor); });
    out.push_back(scalar("elem.mul_ms", "ms", mul_ms));
    out.push_back(scalar("elem.computed_GBps", "GB/s",
                         3 * limbs * limb_bytes / (mul_ms * 1e-3) / 1e9));
    return out;
}

std::vector<Metric>
boot_layer(const RefreshTimes& r, const BootEnv& be)
{
    std::vector<Metric> out = {
        timing("boot.subsum_ms", "ms", r.subsum_s, 1e3),
        timing("boot.cts_ms", "ms", r.cts_s, 1e3),
        timing("boot.evalmod_ms", "ms", r.evalmod_s, 1e3),
        timing("boot.stc_ms", "ms", r.stc_s, 1e3),
        scalar("boot.usable_levels", "count", r.usable_levels),
        scalar("boot.rotation_keys", "count",
               static_cast<double>(be.boot->required_rotations().size())),
        timing("boot.chain_ms", "ms", r.chain_s, 1e3),
    };
    return out;
}

std::vector<Metric>
serve_layer(ServingEnv& env, const ServeWindow& w)
{
    std::vector<double> queue[2], exec[2];
    for (const JobRecord& j : w.jobs) {
        const int c = is_interactive(j.kind) ? 0 : 1;
        queue[c].push_back(j.queue_s);
        exec[c].push_back(j.exec_s);
    }
    double busy = 0;
    for (const JobRecord& j : w.jobs) busy += j.exec_s;
    double late_max = 0;
    for (const double l : w.late_s) late_max = std::max(late_max, l);

    std::vector<Metric> out;
    const char* cls[2] = {"interactive", "app"};
    for (int c = 0; c < 2; ++c) {
        const std::string q = std::string("server.queue_ms.") + cls[c];
        out.push_back(percentile_metric(q + ".p50", "ms", queue[c], 50, 1e3));
        out.push_back(percentile_metric(q + ".p90", "ms", queue[c], 90, 1e3));
    }
    for (int c = 0; c < 2; ++c) {
        out.push_back(percentile_metric(
            std::string("server.exec_ms.") + cls[c] + ".p50", "ms", exec[c],
            50, 1e3));
    }
    out.push_back(scalar("server.lane_busy_share", "share",
                         busy / (ServingEnv::kLanes * w.makespan_s)));

    // runtime/executor: each graph alone, one job at a time.
    const rt::Executor executor(env.resources());
    double job_ms[kNumJobKinds] = {};
    std::size_t peak_live[kNumJobKinds] = {};
    std::size_t hits = 0;
    std::size_t misses = 0;
    for (int k = 0; k < kNumJobKinds; ++k) {
        const auto kind = static_cast<JobKind>(k);
        const rt::Binding& in = env.inputs[k][0].binding;
        rt::ExecStats stats;
        const int reps = is_interactive(kind) ? 15 : 5;
        job_ms[k] = median_ms("runtime/executor.run", reps, [&] {
            (void)executor.run(env.graph(kind), rt::Binding(in), &stats);
        });
        peak_live[k] = stats.peak_live_bytes;
        hits += stats.plain_cache_hits;
        misses += stats.plain_cache_misses;
    }
    std::vector<double> interference;
    for (const JobRecord& j : w.jobs) {
        if (!is_interactive(j.kind) && !j.failed) {
            interference.push_back(j.exec_s * 1e3 /
                                   job_ms[static_cast<int>(j.kind)]);
        }
    }
    out.push_back(percentile_metric("server.interference.app", "x",
                                    interference, 50));
    out.push_back(scalar("loadgen.late_ms.max", "ms", late_max * 1e3));
    out.push_back(scalar("loadgen.backlog_at_close", "count",
                         static_cast<double>(w.backlog_at_close)));

    for (int k = 0; k < kNumJobKinds; ++k) {
        out.push_back(scalar(std::string("exec.job_ms.") +
                                 job_kind_name(static_cast<JobKind>(k)),
                             "ms", job_ms[k]));
    }
    for (const JobKind k : {JobKind::kResnet, JobKind::kHelr}) {
        out.push_back(scalar(
            std::string("exec.peak_live_mb.") + job_kind_name(k), "MB",
            static_cast<double>(peak_live[static_cast<int>(k)]) / (1 << 20)));
    }
    out.push_back(scalar("exec.plain_cache_hit_ratio", "share",
                         ratio(hits, hits + misses)));

    for (int k = 0; k < kNumJobKinds; ++k) {
        const auto kind = static_cast<JobKind>(k);
        const std::string g = job_kind_name(kind);
        out.push_back(
            scalar("compile.register_ms." + g, "ms", env.register_ms[k]));
        out.push_back(scalar("compile.nodes_raw." + g, "count",
                             static_cast<double>(env.nodes_raw[k])));
        out.push_back(scalar("compile.nodes_opt." + g, "count",
                             static_cast<double>(env.graph(kind).num_nodes())));
        if (!is_interactive(kind)) {
            out.push_back(scalar(
                "compile.bootstraps." + g, "count",
                env.graph(kind).count_kind(rt::OpKind::kBootstrap)));
        }
    }
    return out;
}

std::vector<Metric>
workspace_layer(const bts::WorkspaceStats& ws)
{
    return {scalar("ws.hit_ratio", "share",
                   ratio(ws.hits, ws.hits + ws.misses)),
            scalar("ws.peak_mb", "MB",
                   static_cast<double>(ws.peak_bytes) / (1 << 20))};
}

} // namespace e2e
