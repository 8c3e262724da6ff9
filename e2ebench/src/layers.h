/**
 * @file
 * Per-layer probes of the traced run. Each times calls into one
 * module's public functions from the benchmark's own code:
 *
 *  - runtime/server, runtime/executor, runtime/passes + analysis on the
 *    serving instance;
 *  - ckks/bootstrapper stage_* calls;
 *  - ckks/evaluator at the top, middle and bottom level, math (NTT) and
 *    rns (BConv, element-wise) at the instance's N and top-level limb
 *    count, and common/parallel (1 thread against 4);
 *  - common/workspace pool statistics.
 */
#pragma once

#include <vector>

#include "common/workspace.h"
#include "serve.h"
#include "workloads.h"

namespace e2e {

/** eval.*, ntt.*, bconv.*, elem.* on @p env at the limb-pool's current
 *  thread count, and parallel.* (HMult on 1 thread against 4). Leaves
 *  the limb pool at @p threads. */
std::vector<Metric> eval_layer(CkksEnv& env, const bts::EvalKey& rot1,
                               u64 seed, int threads);

/** boot.* from stage-by-stage refresh cycles on @p be. */
std::vector<Metric> boot_layer(const RefreshTimes& r, const BootEnv& be);

/** server.*, loadgen.*, exec.* and compile.* from a served window on
 *  @p env plus one-job-at-a-time Executor runs of each graph. */
std::vector<Metric> serve_layer(ServingEnv& env, const ServeWindow& w);

/** ws.* from the workspace pool statistics of the measured region. */
std::vector<Metric> workspace_layer(const bts::WorkspaceStats& ws);

} // namespace e2e
