/**
 * @file
 * Simulator graph backend: deterministic lowering of a runtime::Graph
 * to a sim::Trace, so the BtsSimulator consumes runtime-produced
 * traces instead of trusted hand-written transcriptions.
 *
 * The lowering is deterministic and structure-preserving:
 *  - trace object ids are assigned from value ids in first-use order
 *    (graph inputs at first reference, node outputs at production),
 *    the order a TraceBuilder-style generator calling fresh_id() per
 *    op would use;
 *  - op levels come from the graph's value metadata (HRescale executes
 *    at its input's level, ModRaise at the raised level);
 *  - a composite node lowers to the primitives its OpInfo row names
 *    (a hoisted group to one HRot per amount);
 *  - a kBootstrap node expands to the full ModRaise / CtS / EvalMod /
 *    StC plan via workloads::append_bootstrap, with every expanded op
 *    tagged in_bootstrap and counted in Trace::bootstrap_count.
 *
 * lower_node is the one expansion: lower_to_trace collects it into a
 * trace, and the resource analyzer (analysis/resource.h) prices it.
 */
#pragma once

#include <span>
#include <vector>

#include "hwparams/instance.h"
#include "runtime/graph.h"
#include "sim/op_trace.h"

namespace bts::runtime {

/**
 * Throw (std::invalid_argument) unless @p g's level geometry fits
 * @p inst: every value level within the instance chain, and a graph
 * that raises or bootstraps targets the instance's L and usable
 * levels. A graph built for a different modulus chain would produce
 * nonsense cost-model lookups.
 */
void check_lowerable(const Graph& g, const hw::CkksInstance& inst);

/**
 * Lower node @p i of @p g: append its primitive ops to @p b and return
 * them (valid until @p b grows). @p object maps value ids to trace
 * object ids, -1 until assigned; the node's unassigned inputs are
 * assigned here, and its outputs always are. Nodes must be lowered in
 * graph order.
 */
std::span<const sim::HeOp> lower_node(const Graph& g, std::size_t i,
                                      const hw::CkksInstance& inst,
                                      sim::TraceBuilder& b,
                                      std::vector<int>& object);

/** Lower @p g to a schedulable trace for @p inst (check_lowerable,
 *  then lower_node over every node). */
sim::Trace lower_to_trace(const Graph& g, const hw::CkksInstance& inst);

/** The primitive sim kind for a graph op (fails on kBootstrap, which
 *  has no single-op image — it lowers as a composite expansion — and on
 *  the pass-introduced composites). */
sim::HeOpKind to_sim_kind(OpKind kind);

} // namespace bts::runtime
