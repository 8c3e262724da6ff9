/**
 * @file
 * Workload trace generators for the evaluation (Section 6.2):
 * the bootstrapping plan, HELR logistic regression [39],
 * channel-packed ResNet-20 [59, 50], and the 2-way sorting network
 * [42]. The T_mult,a/slot microbenchmark (Eq. 8) is the lowered
 * runtime::tmult_graph (runtime/graph_workloads.h).
 *
 * These generators reproduce the published op *structure* (op mix,
 * level schedule, bootstrap placement); data values never matter to the
 * simulator. Bootstrap counts per instance are the paper's own Table 6
 * calibration target.
 *
 * helr / resnet20 / sorting each have a runtime::Graph port that also
 * *executes* on the functional library (runtime/apps/{helr,resnet,
 * sort}.h), pinned by op-kind histogram + bootstrap count per Table 4
 * instance in tests/runtime/test_apps_pin.cpp. The ports' lowered
 * traces still differ in levels and ids, so the simulated Table 5/6
 * times would move by up to 0.8% if the benches switched to them;
 * until they do, a structural edit here must be made in the port too.
 */
#pragma once

#include "hwparams/instance.h"
#include "sim/op_trace.h"

namespace bts::workloads {

using hw::CkksInstance;
using sim::Trace;

/**
 * One full bootstrapping: ModRaise, 3 CoeffToSlot stages, conjugation,
 * EvalMod on both components, 3 SlotToCoeff stages. Appends to
 * @p builder starting from a level-0 ciphertext @p ct_id and returns
 * the refreshed ciphertext id (at level L - L_boot).
 */
int append_bootstrap(sim::TraceBuilder& builder, const CkksInstance& inst,
                     int ct_id);

/** HELR: 30 iterations of batch-1024 logistic-regression training
 *  (inner products, degree-3 sigmoid, gradient step; 5 levels/iter). */
Trace helr(const CkksInstance& inst, int iterations = 30);

/** Channel-packed ResNet-20 inference on one encrypted image. */
Trace resnet20(const CkksInstance& inst);

/** 2-way bitonic sorting network over 2^14 encrypted elements using a
 *  masked compare-exchange (sign polynomial iterated @p sign_rounds
 *  times per stage). */
Trace sorting(const CkksInstance& inst, int log_elements = 14,
              int sign_rounds = 8);

} // namespace bts::workloads
