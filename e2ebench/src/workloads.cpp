#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>

#include "common/parallel.h"
#include "common/workspace.h"
#include "host.h"
#include "layers.h"
#include "serve.h"
#include "spans.h"

namespace e2e {

Metric
scalar(const std::string& name, const std::string& unit, double v)
{
    return {name, unit, v, v, v, 1};
}

Metric
timing(const std::string& name, const std::string& unit,
       const std::vector<double>& xs, double scale)
{
    const Summary s = summarize(xs);
    return {name, unit, s.median * scale, s.q1 * scale, s.q3 * scale, s.n};
}

Metric
percentile_metric(const std::string& name, const std::string& unit,
                  const std::vector<double>& xs, double p, double scale)
{
    const double v = percentile(xs, p) * scale;
    return {name, unit, v, v, v, xs.size()};
}

namespace {

/** Limb-pool threads of the closed-loop workloads. */
constexpr int kPoolThreads = 4;
/** Set-up repetitions behind setup_s (its median). */
constexpr int kSetups = 5;
/** Output tolerance of refresh cycles (bootstrap precision is ~12
 *  bits on these instances; a diverged EvalMod is off by O(1)) and of
 *  bootstrap-free chains (CKKS noise only). */
constexpr double kRefreshTol = 1e-2;
constexpr double kChainTol = 1e-3;

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Ciphertext
refresh(const BootEnv& be, const Ciphertext& ct, bool by_stage,
        RefreshTimes& t)
{
    if (!by_stage) return be.boot->bootstrap(ct);
    const bts::Bootstrapper& b = *be.boot;
    const auto stage = [](const char* name, std::vector<double>& out,
                          const auto& fn) {
        const TraceSpan span(name);
        const Clock::time_point t0 = Clock::now();
        auto r = fn();
        out.push_back(seconds_since(t0));
        return r;
    };
    const Ciphertext raised = stage("ckks/bootstrapper.stage_subsum",
                                    t.subsum_s, [&] {
                                        return b.stage_raise_and_subsum(ct);
                                    });
    const auto [u_re, u_im] =
        stage("ckks/bootstrapper.stage_cts", t.cts_s,
              [&] { return b.stage_coeff_to_slot(raised); });
    const auto [v_re, v_im] =
        stage("ckks/bootstrapper.stage_evalmod", t.evalmod_s, [&] {
            return std::make_pair(b.stage_eval_mod(u_re),
                                  b.stage_eval_mod(u_im));
        });
    Ciphertext out = stage("ckks/bootstrapper.stage_stc", t.stc_s, [&] {
        return b.stage_slot_to_coeff(v_re, v_im);
    });
    if (b.config().normalize_output_scale && out.level >= 1) {
        const TraceSpan span("ckks/evaluator.mult_const_to_scale");
        out = be.env.eval.mult_const_to_scale(out, 1.0, be.env.ctx.delta());
    }
    return out;
}

} // namespace

std::vector<double>
paced(int min_rounds, double seconds, const std::function<void()>& round,
      TracedRounds* traced)
{
    SpanRecorder& rec = SpanRecorder::instance();
    if (traced) min_rounds = std::max(min_rounds, 2); // one off, one on
    const Clock::time_point start = Clock::now();
    std::vector<double> rounds;
    for (int r = 0; r < min_rounds ||
                    seconds_since(start) + rounds.back() <= seconds;
         ++r) {
        const bool on = r % 2 == 1;
        if (traced) rec.set_enabled(on);
        const Clock::time_point r0 = Clock::now();
        round();
        rounds.push_back(seconds_since(r0));
        if (traced) {
            (on ? traced->on_s : traced->off_s).push_back(rounds.back());
        }
    }
    if (traced) rec.set_enabled(true);
    return rounds;
}

double
round_drift(const std::vector<double>& rounds)
{
    if (rounds.size() < 2) return 0;
    const auto mid = rounds.begin() +
                     static_cast<std::ptrdiff_t>(rounds.size() / 2);
    const double first = percentile({rounds.begin(), mid}, 50);
    const double second = percentile({mid, rounds.end()}, 50);
    return second / first - 1;
}

RefreshLoop::RefreshLoop(BootEnv& be, u64 seed) : be_(be)
{
    const TraceSpan span("ckks/encryptor.refresh_inputs");
    const std::size_t slots = be.boot->config().slots;
    x_ = random_vec(slots, 0.5, seed * 31 + 1);
    u_ = unit_vec(slots, seed * 31 + 2);
    x0_ = be.env.encrypt(x_, 0);
    u_top_ = be.env.encrypt(u_, be.env.ctx.max_level());
}

void
RefreshLoop::step(bool by_stage)
{
    CkksEnv& env = be_.env;
    const bts::Evaluator& ev = env.eval;
    const TraceSpan cycle_span("cycle.refresh");
    const Clock::time_point c0 = Clock::now();
    Ciphertext ct;
    try {
        const TraceSpan span("ckks/bootstrapper.bootstrap");
        ct = refresh(be_, x0_, by_stage, t_);
    } catch (const std::exception& e) {
        check_.record_error(std::string("refresh (") + e.what() + ")");
        return;
    }
    t_.boot_s.push_back(seconds_since(c0));
    const int levels = ct.level;
    const Clock::time_point ch0 = Clock::now();
    for (int l = levels; l >= 1; --l) {
        Ciphertext op = u_top_;
        ev.drop_level_inplace(op, l);
        const TraceSpan span("ckks/evaluator.mult+rescale");
        const Clock::time_point s0 = Clock::now();
        ct = ev.mult(ct, op, env.mult_key);
        ev.rescale_inplace(ct);
        t_.step_s.push_back(seconds_since(s0));
    }
    t_.chain_s.push_back(seconds_since(ch0));
    t_.cycle_s.push_back(seconds_since(c0));
    t_.usable_levels = levels;
    if (levels != ref_levels_) {
        ref_ = x_;
        for (int l = levels; l >= 1; --l) ref_ = mul_slots(ref_, u_);
        ref_levels_ = levels;
    }
    check_.check(env.decrypt(ct), ref_, kRefreshTol,
                 "refresh cycle N=" + std::to_string(env.ctx.n()));
}

ChainLoop::ChainLoop(CkksEnv& env, const bts::EvalKey& rot1, u64 seed)
    : env_(env), rot1_(rot1)
{
    const TraceSpan span("ckks/encryptor.chain_inputs");
    const std::size_t slots = env.encoder.max_slots();
    const int top = env.ctx.max_level();
    const SlotVec x = unit_vec(slots, seed * 37 + 1);
    std::vector<SlotVec> y;
    for (int i = 0; i < kOperands; ++i) {
        y.push_back(unit_vec(slots, seed * 37 + 2 + u64(i)));
        y_top_.push_back(env.encrypt(y.back(), top));
    }
    x_top_ = env.encrypt(x, top);
    ref_ = x;
    for (int l = top; l >= 1; --l) {
        ref_ = rotate_slots(mul_slots(ref_, y[(top - l) % kOperands]), 1);
    }
}

void
ChainLoop::step()
{
    const bts::Evaluator& ev = env_.eval;
    const int top = env_.ctx.max_level();
    const TraceSpan chain_span("chain.he_ops");
    Ciphertext ct = x_top_;
    double chain_s = 0;
    for (int l = top; l >= 1; --l) {
        Ciphertext op =
            y_top_[static_cast<std::size_t>((top - l) % kOperands)];
        ev.drop_level_inplace(op, l);
        const Clock::time_point s0 = Clock::now();
        {
            const TraceSpan span("ckks/evaluator.mult");
            ct = ev.mult(ct, op, env_.mult_key);
        }
        {
            const TraceSpan span("ckks/evaluator.rescale");
            ev.rescale_inplace(ct);
        }
        const double mult_rescale = seconds_since(s0);
        {
            const TraceSpan span("ckks/evaluator.rotate");
            ct = ev.rotate(ct, 1, rot1_);
        }
        const double step = seconds_since(s0);
        if (l <= 3) t_.mult_low_s.push_back(mult_rescale);
        t_.step_s.push_back(step);
        chain_s += step;
    }
    t_.chain_s.push_back(chain_s);
    check_.check(env_.decrypt(ct), ref_, kChainTol,
                 "chain N=" + std::to_string(env_.ctx.n()));
}

LowMultLoop::LowMultLoop(CkksEnv& env, u64 seed) : env_(env)
{
    const std::size_t slots = env.encoder.max_slots();
    for (int l = 1; l <= 3; ++l) {
        a_.push_back(env.encrypt(unit_vec(slots, seed * 41 + 1), l));
        b_.push_back(env.encrypt(unit_vec(slots, seed * 41 + 2), l));
    }
}

void
LowMultLoop::step()
{
    for (std::size_t i = 0; i < a_.size(); ++i) {
        const TraceSpan span("ckks/evaluator.mult+rescale[low]");
        const Clock::time_point t0 = Clock::now();
        Ciphertext ct = env_.eval.mult(a_[i], b_[i], env_.mult_key);
        env_.eval.rescale_inplace(ct);
        samples_.push_back(seconds_since(t0));
    }
}

namespace {

/** Inputs to the end-to-end metric set, filled in by each workload. */
struct E2eSamples
{
    std::vector<double> setup_s;
    double peak_rss_mb = 0; //!< sampled at the end of the main loop
    /** Round times of the window's closed loop, for the drift guard. */
    std::vector<double> rounds_s;
    /** Minimum precision over the main loop's passing outputs; 0 when
     *  none passed. */
    double precision_bits = 0;
    std::vector<double> boot_s;
    std::vector<double> tmult_s_per_slot;
    std::vector<double> chain_s;
    std::vector<double> mult_low_s;
    /** Served-job latencies by class; only serve_mix serves. */
    bool served = false;
    std::vector<double> interactive_s, app_s;
    double slo = 0;
};

/** The metrics every workload reports, then serve_mix's class metrics. */
std::vector<Metric>
e2e_metrics(const E2eSamples& s)
{
    std::vector<Metric> out = {
        timing("setup_s", "s", s.setup_s),
        scalar("peak_rss_mb", "MB", s.peak_rss_mb),
        scalar("precision_bits", "bits", s.precision_bits),
        timing("boot_ms", "ms", s.boot_s, 1e3),
        timing("tmult_a_slot_us", "us", s.tmult_s_per_slot, 1e6),
        timing("chain_s", "s", s.chain_s),
        timing("hmult_low_ms", "ms", s.mult_low_s, 1e3),
    };
    if (!s.served) return out;
    out.push_back(timing("interactive_p50_ms", "ms", s.interactive_s, 1e3));
    out.push_back(percentile_metric("interactive_p90_ms", "ms",
                                    s.interactive_s, 90, 1e3));
    out.push_back(timing("app_p50_ms", "ms", s.app_s, 1e3));
    out.push_back(percentile_metric("app_p90_ms", "ms", s.app_s, 90, 1e3));
    out.push_back(scalar("slo_attainment", "share", s.slo));
    return out;
}

double
main_precision(const OutputCheck& main)
{
    return main.failed() < main.attempted() ? main.min_bits() : 0;
}

/** Refresh-cycle samples into the boot_ms / tmult_a_slot_us inputs. */
void
add_refresh(const RefreshTimes& r, std::size_t slots, E2eSamples& s)
{
    s.boot_s = r.boot_s;
    s.tmult_s_per_slot.clear();
    for (const double c : r.cycle_s) {
        s.tmult_s_per_slot.push_back(
            c / (static_cast<double>(r.usable_levels) *
                 static_cast<double>(slots)));
    }
}

/** Chain samples plus the level 1..3 repeat into the chain_s /
 *  hmult_low_ms inputs. */
void
add_chains(const ChainTimes& c, const LowMultLoop& low, E2eSamples& s)
{
    s.chain_s = c.chain_s;
    s.mult_low_s = c.mult_low_s;
    s.mult_low_s.insert(s.mult_low_s.end(), low.samples().begin(),
                        low.samples().end());
}

/** serve_mix's refresh probe: at least kProbeRounds rounds in about
 *  kProbeS seconds, split around its served window. */
constexpr int kProbeRounds = 12;
constexpr double kProbeS = 5;
/** he_ops_wide's refresh probe on the refresh instance (~2 s a cycle). */
constexpr int kWideProbeRounds = 6;
constexpr double kWideProbeS = 16;
/** Served window of the traced companion on the serving instance. */
constexpr double kCompanionServeS = 3;
/** Level 1..3 steps per he_ops_wide chain. A 30 s window holds only
 *  three or four chains of 7 s, with three low-level steps each; these
 *  add samples to hmult_low_ms for about 0.5 s per chain. */
constexpr int kLowStepsPerChain = 3;

/**
 * One workload's instance and loops. setup() builds them (timed as
 * setup_s), warm_up() runs them once untimed, and measure() runs one
 * window and fills the end-to-end samples. Every output the loops make
 * is checked; the checks go to the @p check arguments. A traced
 * measure() also fills @p traced and keeps what layers() reports.
 */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Drop the instance, so set-up is timed without the teardown. */
    virtual void release() = 0;
    virtual void setup(u64 seed) = 0;
    virtual void warm_up(OutputCheck& check) = 0;
    virtual void measure(double seconds, TracedRounds* traced,
                         E2eSamples& s, OutputCheck& check) = 0;
    virtual std::vector<Metric> layers(OutputCheck& check) = 0;
    /** Limb-pool threads the workload runs with. */
    virtual int threads() const { return kPoolThreads; }

  protected:
    u64 seed_ = 1;
};

/** Companion on the serving instance for workloads that do not serve:
 *  a short served window for the server/executor/passes layers, at the
 *  serving thread count. */
std::vector<Metric>
companion_serve_layers(u64 seed, OutputCheck& check)
{
    bts::set_num_threads(kServeThreads);
    ServingEnv env(seed);
    env.warm_up();
    ServeWindow w = serve_window(env, seed, kCompanionServeS);
    check_jobs(env, w, check);
    std::vector<Metric> out = serve_layer(env, w);
    bts::set_num_threads(kPoolThreads);
    return out;
}

template <typename T>
void
append(std::vector<T>& out, std::vector<T> more)
{
    for (T& m : more) out.push_back(std::move(m));
}

class ServeMix final : public Workload
{
  public:
    void
    release() override
    {
        low_.reset();
        chains_.reset();
        refresh_.reset();
        env_.reset();
    }

    void
    setup(u64 seed) override
    {
        seed_ = seed;
        env_ = std::make_unique<ServingEnv>(seed);
        refresh_ = std::make_unique<RefreshLoop>(env_->be, seed);
        chains_ = std::make_unique<ChainLoop>(env_->be.env,
                                              env_->be.rot_keys.at(1), seed);
        low_ = std::make_unique<LowMultLoop>(env_->be.env, seed);
    }

    void
    warm_up(OutputCheck& check) override
    {
        env_->warm_up();
        bts::set_num_threads(kPoolThreads);
        probe_round(false);
        bts::set_num_threads(kServeThreads);
        check.merge(refresh_->take_check());
        check.merge(chains_->take_check());
    }

    void
    measure(double seconds, TracedRounds* traced, E2eSamples& s,
            OutputCheck& check) override
    {
        // The serving instance's refresh and chains run as a probe on
        // the closed loops' thread count, half before and half after
        // the served window (a closed loop would contend with the
        // served jobs). So the drift guard compares the host before and
        // after the window.
        refresh_->clear_times();
        chains_->clear_times();
        low_->clear_times();
        const auto probe = [&] {
            bts::set_num_threads(kPoolThreads);
            std::vector<double> rounds =
                paced(kProbeRounds / 2, kProbeS / 2,
                      [&] { probe_round(traced != nullptr); }, traced);
            bts::set_num_threads(kServeThreads);
            return rounds;
        };
        s.rounds_s = probe();

        ServeWindow w = serve_window(*env_, seed_, seconds);
        append(s.rounds_s, probe());
        s.peak_rss_mb = peak_rss_mb();
        add_refresh(refresh_->times(), env_->be.boot->config().slots, s);
        add_chains(chains_->times(), *low_, s);
        check.merge(refresh_->take_check());
        check.merge(chains_->take_check());

        OutputCheck main;
        check_jobs(*env_, w, main);
        s.precision_bits = main_precision(main);
        check.merge(main);
        std::vector<SloRecord> slo;
        s.served = true;
        s.interactive_s.clear();
        s.app_s.clear();
        for (const JobRecord& j : w.jobs) {
            (is_interactive(j.kind) ? s.interactive_s : s.app_s)
                .push_back(j.latency_s());
            slo.push_back({j.latency_s(), slo_limit_s(j.kind), j.failed});
        }
        s.slo = slo_attainment(slo);
        if (traced) window_ = std::move(w);
    }

    std::vector<Metric>
    layers(OutputCheck&) override
    {
        std::vector<Metric> out = serve_layer(*env_, window_);
        append(out, boot_layer(refresh_->times(), env_->be));
        append(out, eval_layer(env_->be.env, env_->be.rot_keys.at(1), seed_,
                               kServeThreads));
        return out;
    }

    int threads() const override { return kServeThreads; }

  private:
    void
    probe_round(bool by_stage)
    {
        refresh_->step(by_stage);
        chains_->step();
        low_->step();
    }

    std::unique_ptr<ServingEnv> env_;
    std::unique_ptr<RefreshLoop> refresh_;
    std::unique_ptr<ChainLoop> chains_;
    std::unique_ptr<LowMultLoop> low_;
    ServeWindow window_;
};

class BootRefresh final : public Workload
{
  public:
    void
    release() override
    {
        low_.reset();
        chains_.reset();
        refresh_.reset();
        env_.reset();
    }

    void
    setup(u64 seed) override
    {
        seed_ = seed;
        env_ = std::make_unique<BootEnv>(refresh_params(seed),
                                         refresh_boot_config(),
                                         std::vector<int>{1});
        refresh_ = std::make_unique<RefreshLoop>(*env_, seed);
        chains_ = std::make_unique<ChainLoop>(env_->env,
                                              env_->rot_keys.at(1), seed);
        low_ = std::make_unique<LowMultLoop>(env_->env, seed);
    }

    void
    warm_up(OutputCheck& check) override
    {
        env_->pin_out_level();
        chains_->step();
        low_->step();
        check.merge(chains_->take_check());
    }

    void
    measure(double seconds, TracedRounds* traced, E2eSamples& s,
            OutputCheck& check) override
    {
        refresh_->clear_times();
        chains_->clear_times();
        low_->clear_times();
        const bool by_stage = traced != nullptr;
        s.rounds_s = paced(
            1, seconds,
            [&] {
                refresh_->step(by_stage);
                chains_->step();
                low_->step();
            },
            traced);
        s.peak_rss_mb = peak_rss_mb();
        const RefreshTimes& r = refresh_->times();
        add_refresh(r, env_->boot->config().slots, s);
        add_chains(chains_->times(), *low_, s);
        const OutputCheck main = refresh_->take_check();
        s.precision_bits = main_precision(main);
        check.merge(main);
        check.merge(chains_->take_check());
    }

    std::vector<Metric>
    layers(OutputCheck& check) override
    {
        std::vector<Metric> out = companion_serve_layers(seed_, check);
        append(out, boot_layer(refresh_->times(), *env_));
        append(out, eval_layer(env_->env, env_->rot_keys.at(1), seed_,
                               kPoolThreads));
        return out;
    }

  private:
    std::unique_ptr<BootEnv> env_;
    std::unique_ptr<RefreshLoop> refresh_;
    std::unique_ptr<ChainLoop> chains_;
    std::unique_ptr<LowMultLoop> low_;
};

/** The wide instance: CkksEnv plus the rotation-by-1 key. */
struct WideEnv
{
    explicit WideEnv(u64 seed) : env(wide_params(seed))
    {
        const TraceSpan span("ckks/keygen.gen_rotation_key");
        rot1 = env.keygen.gen_rotation_key(env.sk, 1);
    }
    CkksEnv env;
    bts::EvalKey rot1;
};

class HeOpsWide final : public Workload
{
  public:
    void
    release() override
    {
        low_.reset();
        chains_.reset();
        env_.reset();
    }

    void
    setup(u64 seed) override
    {
        seed_ = seed;
        env_ = std::make_unique<WideEnv>(seed);
        chains_ = std::make_unique<ChainLoop>(env_->env, env_->rot1, seed);
        low_ = std::make_unique<LowMultLoop>(env_->env, seed);
    }

    void
    warm_up(OutputCheck&) override
    {
        // One top-level step and the low levels fill the workspace pool,
        // so the first measured chain does not pay its allocations.
        CkksEnv& env = env_->env;
        const int top = env.ctx.max_level();
        const SlotVec z = unit_vec(env.encoder.max_slots(), seed_);
        Ciphertext ct = env.eval.mult(env.encrypt(z, top),
                                      env.encrypt(z, top), env.mult_key);
        env.eval.rescale_inplace(ct);
        (void)env.eval.rotate(ct, 1, env_->rot1);
        low_->step();
    }

    void
    measure(double seconds, TracedRounds* traced, E2eSamples& s,
            OutputCheck& check) override
    {
        chains_->clear_times();
        low_->clear_times();
        s.rounds_s = paced(
            1, seconds,
            [&] {
                chains_->step();
                for (int i = 0; i < kLowStepsPerChain; ++i) low_->step();
            },
            traced);
        // The probe below raises the process's peak, so a second window
        // reports the first window's figure, taken before any probe.
        if (main_rss_mb_ == 0) main_rss_mb_ = peak_rss_mb();
        s.peak_rss_mb = main_rss_mb_;
        const ChainTimes& c = chains_->times();
        add_chains(c, *low_, s);
        const OutputCheck main = chains_->take_check();
        s.precision_bits = main_precision(main);
        check.merge(main);

        // This workload has no bootstrap. boot_ms and tmult_a_slot_us
        // come from boot_refresh's refresh cycle, built here, after the
        // main loop and peak_rss_mb, so neither it nor its build counts
        // in this workload's other metrics.
        BootEnv be(refresh_params(seed_), refresh_boot_config(), {});
        be.pin_out_level();
        RefreshLoop refresh(be, seed_);
        paced(kWideProbeRounds, kWideProbeS,
              [&] { refresh.step(traced != nullptr); });
        add_refresh(refresh.times(), be.boot->config().slots, s);
        check.merge(refresh.take_check());
        if (traced) boot_ = boot_layer(refresh.times(), be);
    }

    std::vector<Metric>
    layers(OutputCheck& check) override
    {
        std::vector<Metric> out = companion_serve_layers(seed_, check);
        append(out, boot_);
        append(out, eval_layer(env_->env, env_->rot1, seed_, kPoolThreads));
        return out;
    }

  private:
    std::unique_ptr<WideEnv> env_;
    std::unique_ptr<ChainLoop> chains_;
    std::unique_ptr<LowMultLoop> low_;
    std::vector<Metric> boot_; //!< boot.* of the traced refresh probe
    double main_rss_mb_ = 0;   //!< peak RSS after the first main loop
};

std::unique_ptr<Workload>
make_workload(const std::string& name)
{
    if (name == "serve_mix") return std::make_unique<ServeMix>();
    if (name == "boot_refresh") return std::make_unique<BootRefresh>();
    if (name == "he_ops_wide") return std::make_unique<HeOpsWide>();
    return nullptr;
}

} // namespace

RunResult
run_workload(const RunOptions& opts)
{
    const std::unique_ptr<Workload> w = make_workload(opts.workload);
    if (!w) throw std::invalid_argument("unknown workload: " + opts.workload);
    const Clock::time_point run0 = Clock::now();
    bts::set_num_threads(w->threads());
    SpanRecorder& rec = SpanRecorder::instance();

    RunResult result;
    E2eSamples s;
    rec.set_enabled(opts.trace);
    for (int i = 0; i < kSetups; ++i) {
        w->release();
        const TraceSpan span("setup");
        const Clock::time_point t0 = Clock::now();
        w->setup(opts.seed);
        s.setup_s.push_back(seconds_since(t0));
    }
    w->warm_up(result.check);

    // The drift guard (see Drift): a window whose rounds drifted ran on
    // a changing host, so its figures are dropped and it is measured
    // again.
    TracedRounds rounds;
    if (opts.trace) bts::reset_workspace_stats();
    for (Drift& d = result.drift; d.windows < kMaxWindows;) {
        rounds = {};
        d.ref_start_us = reference_kernel_us();
        ++d.windows;
        const Clock::time_point w0 = Clock::now();
        const CpuTicks t0 = cpu_ticks();
        w->measure(opts.seconds, opts.trace ? &rounds : nullptr, s,
                   result.check);
        d.steal_pct = steal_pct(t0, cpu_ticks());
        d.ref_end_us = reference_kernel_us();
        d.round_drift = round_drift(s.rounds_s);
        if (std::abs(d.round_drift) <= kDriftLimit ||
            seconds_since(run0) + seconds_since(w0) > kRedoBudgetS) {
            break;
        }
    }
    if (!opts.trace) {
        result.metrics = e2e_metrics(s);
        return result;
    }

    const bts::WorkspaceStats ws = bts::workspace_stats();
    result.metrics = w->layers(result.check);
    rec.set_enabled(false);
    append(result.metrics, workspace_layer(ws));
    const double off = percentile(rounds.off_s, 50);
    const double on = percentile(rounds.on_s, 50);
    result.metrics.push_back(scalar("trace.overhead_pct", "%",
                                    off > 0 ? 100 * (on / off - 1) : 0));
    return result;
}

} // namespace e2e
