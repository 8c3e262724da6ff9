#include "runtime/lowering.h"

#include "common/check.h"
#include "workloads/workloads.h"

namespace bts::runtime {

sim::HeOpKind
to_sim_kind(OpKind kind)
{
    const OpInfo& info = op_info(kind);
    if (!info.sim) {
        fatal(std::string(info.name) +
              " has no primitive sim image; lower_to_trace expands it");
    }
    return *info.sim;
}

void
check_lowerable(const Graph& g, const hw::CkksInstance& inst)
{
    // Level-geometry compatibility: every value must fit the instance's
    // chain, and composite/raise ops must target ITS top level.
    for (std::size_t id = 0; id < g.num_values(); ++id) {
        const ValueInfo& info = g.value(static_cast<int>(id));
        BTS_CHECK(info.level <= inst.max_level,
                  g.name() << ": value level " << info.level
                           << " exceeds instance max_level "
                           << inst.max_level);
    }
    if (g.uses_bootstrap() || g.count_kind(OpKind::kModRaise) > 0) {
        BTS_CHECK(g.traits().max_level == inst.max_level,
                  g.name() << ": graph raises to level "
                           << g.traits().max_level << ", instance has L = "
                           << inst.max_level);
    }
    if (g.uses_bootstrap()) {
        BTS_CHECK(g.traits().bootstrap_out_level == inst.usable_levels(),
                  g.name() << ": graph bootstrap level "
                           << g.traits().bootstrap_out_level
                           << " != instance usable levels "
                           << inst.usable_levels());
    }
}

std::span<const sim::HeOp>
lower_node(const Graph& g, std::size_t i, const hw::CkksInstance& inst,
           sim::TraceBuilder& b, std::vector<int>& object)
{
    const std::size_t first = b.trace().ops.size();
    const Node& n = g.node(i);
    const auto obj = [&](int value_id) {
        if (object[value_id] < 0) object[value_id] = b.fresh_id();
        return object[value_id];
    };

    if (n.kind == OpKind::kBootstrap) {
        object[n.output] =
            workloads::append_bootstrap(b, inst, obj(n.inputs[0]));
    } else if (op_info(n.kind).evk == EvkNeed::kPerAmount) {
        // A hoisted group lowers to its part once per amount: hoisting
        // is a host-side dataflow restructuring, not a new hardware op.
        const sim::HeOpKind rot = to_sim_kind(op_info(n.kind).parts()[0]);
        const int src = obj(n.inputs[0]);
        for (std::size_t k = 0; k < n.amounts.size(); ++k) {
            object[n.outputs[k]] = b.add(rot, g.value(n.outputs[k]).level,
                                         {src}, n.amounts[k]);
        }
    } else {
        // A primitive lowers to its own sim op, a fused kind to its
        // parts in order, each part reading the previous one's result.
        std::vector<ValueInfo> in;
        std::vector<int> ids;
        for (const int v : n.inputs) {
            in.push_back(g.value(v));
            ids.push_back(obj(v));
        }
        fold_steps(n.kind, in, g.traits(),
                   [&](OpKind step, std::span<const ValueInfo> ops,
                       const ValueInfo& out) {
                       // The level an op *executes at*: HRescale still
                       // holds the about-to-drop prime, ModRaise already
                       // runs on the full chain.
                       const int level = step == OpKind::kHRescale
                                             ? ops[0].level
                                             : out.level;
                       const int id = b.add(to_sim_kind(step), level, ids,
                                            n.rot_amount);
                       ids.assign(1, id);
                       return true;
                   });
        object[n.output] = ids[0];
    }
    return {b.trace().ops.data() + first, b.trace().ops.size() - first};
}

sim::Trace
lower_to_trace(const Graph& g, const hw::CkksInstance& inst)
{
    check_lowerable(g, inst);
    sim::TraceBuilder b(g.name());
    std::vector<int> object(g.num_values(), -1);
    for (std::size_t i = 0; i < g.num_nodes(); ++i) {
        lower_node(g, i, inst, b, object);
    }
    return std::move(b.trace());
}

} // namespace bts::runtime
