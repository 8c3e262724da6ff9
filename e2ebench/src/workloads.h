/**
 * @file
 * The benchmark's three workloads and the loops they share.
 *
 *  - serve_mix: open-loop Poisson arrivals into GraphServer on the
 *    serving instance (runtime/server, executor, passes);
 *  - boot_refresh: one closed-loop caller of Bootstrapper on the
 *    refresh instance (ckks/bootstrapper);
 *  - he_ops_wide: one closed-loop caller of Evaluator on the wide
 *    instance (ckks/evaluator, rns, math).
 *
 * Every workload reports the same end-to-end metric set, and serve_mix
 * adds its served-latency metrics; see README.md for what each metric
 * measures on each workload.
 */
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "envs.h"
#include "host.h"
#include "stats.h"

namespace e2e {

/** One reported metric. Timing metrics carry their quartiles and
 *  sample count; scalar metrics have n == 1 and q1 == q3 == value. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
    double q1 = 0;
    double q3 = 0;
    std::size_t n = 1;
};

Metric scalar(const std::string& name, const std::string& unit, double v);
/** Median of @p xs, scaled by @p scale into the metric's unit. */
Metric timing(const std::string& name, const std::string& unit,
              const std::vector<double>& xs, double scale = 1.0);
/** A percentile with no quartiles (n = sample size). */
Metric percentile_metric(const std::string& name, const std::string& unit,
                         const std::vector<double>& xs, double p,
                         double scale = 1.0);

struct RunOptions
{
    std::string workload;
    u64 seed = 1;
    double seconds = 30;
    bool trace = false;
};

/**
 * The drift guard (see Drift): when the median round of a window's
 * second half differs from that of its first half by more than
 * kDriftLimit, the window is measured again, up to kMaxWindows times,
 * and only while another window of the same length would end within
 * kRedoBudgetS of the run's start, so a run stays well inside the
 * three minutes one run may take.
 */
inline constexpr double kDriftLimit = 0.25;
inline constexpr int kMaxWindows = 2;
inline constexpr double kRedoBudgetS = 100;

/** Second-half over first-half median of @p rounds, minus 1; 0 with
 *  fewer than two rounds. */
double round_drift(const std::vector<double>& rounds);

struct RunResult
{
    std::vector<Metric> metrics; //!< end-to-end, or per-layer if traced
    OutputCheck check;
    Drift drift;
};

RunResult run_workload(const RunOptions& opts);

// ----- the closed loops the workloads and probes share -----

/** Round times of a traced run, split by whether spans were recording
 *  (they alternate round by round). */
struct TracedRounds
{
    std::vector<double> off_s, on_s;
};

/** Run @p round at least @p min_rounds (>= 1) times, and again while
 *  one more round as long as the last would still end within @p seconds
 *  of the start; return each round's time. With @p traced, it runs at
 *  least two rounds, spans record on odd rounds only, and each round's
 *  time also goes to traced->off_s or ->on_s; spans are left on. */
std::vector<double> paced(int min_rounds, double seconds,
                          const std::function<void()>& round,
                          TracedRounds* traced = nullptr);

/** Refresh-cycle timings (Eq. 8's numerator per cycle). */
struct RefreshTimes
{
    std::vector<double> boot_s;  //!< per refresh
    std::vector<double> cycle_s; //!< refresh + chain
    std::vector<double> step_s;  //!< each HMult+rescale of the chains
    std::vector<double> chain_s; //!< the HMult+rescale chain per cycle
    /** Per-stage times when the stages were called one by one. */
    std::vector<double> subsum_s, cts_s, evalmod_s, stc_s;
    int usable_levels = 0;
};

/** Each step bootstraps one level-0 ciphertext, then HMults it by a
 *  unit-modulus ciphertext and rescales at every refreshed level down
 *  to 0. With by_stage the refresh calls the public stage_* entry
 *  points one by one (bit-identical to bootstrap()). */
class RefreshLoop
{
  public:
    RefreshLoop(BootEnv& be, u64 seed);
    void step(bool by_stage);
    const RefreshTimes& times() const { return t_; }
    void clear_times() { t_ = {}; }
    /** The checks of the steps since the last call. */
    OutputCheck take_check() { return std::exchange(check_, {}); }

  private:
    BootEnv& be_;
    OutputCheck check_;
    Ciphertext x0_, u_top_;
    SlotVec x_, u_;
    SlotVec ref_; //!< x_ times u_ once per refreshed level
    int ref_levels_ = -1;
    RefreshTimes t_;
};

struct ChainTimes
{
    std::vector<double> chain_s;
    std::vector<double> step_s;     //!< HMult+rescale+HRot per level
    std::vector<double> mult_low_s; //!< HMult+rescale at levels 1..3
};

/** Each step runs one chain: from the top level down to 1, HMult
 *  (relinearized) by a fresh unit-modulus operand, rescale, HRot(1). */
class ChainLoop
{
  public:
    ChainLoop(CkksEnv& env, const bts::EvalKey& rot1, u64 seed);
    void step();
    const ChainTimes& times() const { return t_; }
    void clear_times() { t_ = {}; }
    /** The checks of the steps since the last call. */
    OutputCheck take_check() { return std::exchange(check_, {}); }

  private:
    static constexpr int kOperands = 3;
    CkksEnv& env_;
    const bts::EvalKey& rot1_;
    OutputCheck check_;
    Ciphertext x_top_;
    std::vector<Ciphertext> y_top_;
    SlotVec ref_;
    ChainTimes t_;
};

/** Each step runs HMult+rescale once at levels 1, 2 and 3. */
class LowMultLoop
{
  public:
    LowMultLoop(CkksEnv& env, u64 seed);
    void step();
    const std::vector<double>& samples() const { return samples_; }
    void clear_times() { samples_.clear(); }

  private:
    CkksEnv& env_;
    std::vector<Ciphertext> a_, b_;
    std::vector<double> samples_;
};

} // namespace e2e
