/**
 * @file
 * The served workload's load generator: one generator thread submits
 * the seeded Poisson schedule to the serving instance's GraphServer
 * on time, then collects every job's result and timings.
 */
#pragma once

#include <vector>

#include "check.h"
#include "envs.h"
#include "schedule.h"

namespace e2e {

/** A constant, never recomputed per host: about half of what the 4-lane
 *  server sustains on the 4-vCPU reference host with its lanes on one
 *  limb thread each (kServeThreads). */
inline constexpr double kServeRatePerS = 24;
/** dot, poly (the interactive class) and resnet, helr (the app class). */
inline constexpr double kServeMix[kNumJobKinds] = {0.3, 0.3, 0.2, 0.2};
/** Limb-pool threads while serving. The 4 lanes share one pool; at 4
 *  threads the pool serializes them (the server then sustains ~8.5
 *  jobs/s of a 60/40 mix, so 24 jobs/s grows an unbounded backlog), and
 *  at N=2^8 one thread is faster than 4 for an HMult at low levels. With
 *  one thread each lane runs its job on its own vCPU. */
inline constexpr int kServeThreads = 1;
inline constexpr double kInteractiveLimitS = 0.050;
inline constexpr double kAppLimitS = 1.0;

inline double
slo_limit_s(JobKind k)
{
    return is_interactive(k) ? kInteractiveLimitS : kAppLimitS;
}

/** Output check tolerance of each served graph: the functional tests'
 *  bounds for the apps; CKKS noise only for dot and poly. */
inline double
job_tolerance(JobKind k)
{
    switch (k) {
    case JobKind::kHelr: return 5e-2;
    case JobKind::kResnet: return 3e-2;
    default: return 1e-3;
    }
}

struct JobRecord
{
    JobKind kind = JobKind::kDot;
    int input_set = 0;
    double due_s = 0;      //!< from the window start
    double admitted_s = 0; //!< submit() returned
    double queue_s = 0;    //!< admission -> lane pickup (JobResult)
    double exec_s = 0;     //!< lane pickup -> completion (JobResult)
    bool failed = false;   //!< threw, or missed the output check
    std::vector<bts::Ciphertext> outputs;

    double latency_s() const
    {
        return latency_from_due(due_s, admitted_s, queue_s, exec_s);
    }
};

struct ServeWindow
{
    std::vector<JobRecord> jobs;
    std::vector<double> late_s;       //!< submit time - due time
    std::size_t backlog_at_close = 0; //!< admitted, not completed
    double makespan_s = 0;            //!< window start -> last completion
};

/** Offer @p seconds of the seeded schedule to env's server and wait for
 *  every admitted job. With the span recorder on, each job is recorded
 *  from its due time, split into admission wait, queue and execution. */
ServeWindow serve_window(ServingEnv& env, u64 seed, double seconds);

/** Decrypt every job's outputs, compare them with reference_run on the
 *  job's input set, and mark misses failed. */
void check_jobs(ServingEnv& env, ServeWindow& w, OutputCheck& check);

} // namespace e2e
