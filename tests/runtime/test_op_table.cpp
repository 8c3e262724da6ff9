/**
 * The op table (runtime/graph.h OpInfo) is the one description of each
 * OpKind. These tests pin what the rest of the runtime derives from it:
 *
 *  - every composite kind behaves exactly like its parts run one after
 *    the other — builder metadata, the verifier's re-derived metadata
 *    and noise, the lowered trace, and the fusion pass's choice of kind;
 *  - every row's parts are primitives, and a node the builder rejects
 *    leaves the graph unchanged;
 *  - the evk and arity columns agree with the Executor's key resolution
 *    on the T_mult graph.
 */
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "ckks/test_utils.h"
#include "hwparams/instance.h"
#include "runtime/analysis/verifier.h"
#include "runtime/executor.h"
#include "runtime/graph_workloads.h"
#include "runtime/lowering.h"
#include "runtime/passes/pass_manager.h"

namespace bts::runtime {
namespace {

/** One composite kind, built fused and as its parts. Both builders
 *  declare the same inputs in the same order and mark one output. */
struct Composite
{
    OpKind kind;
    std::function<Value(Graph&, Value ct, Value pt)> fused;
    std::function<Value(Graph&, Value ct, Value pt)> parts;
};

std::vector<Composite>
composites()
{
    const Complex c1(0.5, -0.25);
    const Complex c2(-1.5, 0.0);
    return {
        {OpKind::kHRotHoisted,
         [](Graph& g, Value ct, Value) {
             return g.hrot_hoisted(ct, {1, -2, 3})[2];
         },
         [](Graph& g, Value ct, Value) {
             g.hrot(ct, 1);
             g.hrot(ct, -2);
             return g.hrot(ct, 3);
         }},
        {OpKind::kHMultRescale,
         [](Graph& g, Value ct, Value) { return g.hmult_rescale(ct, ct); },
         [](Graph& g, Value ct, Value) {
             return g.hrescale(g.hmult(ct, ct));
         }},
        {OpKind::kPMultRescale,
         [](Graph& g, Value ct, Value pt) { return g.pmult_rescale(ct, pt); },
         [](Graph& g, Value ct, Value pt) {
             return g.hrescale(g.pmult(ct, pt));
         }},
        {OpKind::kCMultRescale,
         [c1](Graph& g, Value ct, Value) { return g.cmult_rescale(ct, c1); },
         [c1](Graph& g, Value ct, Value) {
             return g.hrescale(g.cmult(ct, c1));
         }},
        {OpKind::kCMultAdd,
         [c1, c2](Graph& g, Value ct, Value) {
             return g.cmult_add(ct, c1, c2);
         },
         [c1, c2](Graph& g, Value ct, Value) {
             return g.cadd(g.cmult(ct, c1), c2);
         }},
    };
}

struct Built
{
    Graph graph;
    int out = -1;
};

Built
build(const hw::CkksInstance& inst,
      const std::function<Value(Graph&, Value, Value)>& body)
{
    const GraphTraits t = traits_for(inst);
    Built b{Graph("op-table", t)};
    const Value ct = b.graph.input(5, t.delta);
    const Value pt = b.graph.plain_input(5, t.delta);
    const Value out = body(b.graph, ct, pt);
    b.graph.mark_output(out);
    b.out = out.id;
    return b;
}

TEST(OpTable, CompositesBehaveLikeTheirParts)
{
    const hw::CkksInstance inst = hw::ins1();
    const std::vector<Composite> all = composites();
    // Every pass-made kind is covered.
    std::set<OpKind> covered;
    for (const Composite& c : all) covered.insert(c.kind);
    for (int k = 0; k < kNumOpKinds; ++k) {
        const OpKind kind = static_cast<OpKind>(k);
        EXPECT_EQ(covered.count(kind) == 1, op_is_composite(kind))
            << op_name(kind);
    }

    for (const Composite& c : all) {
        SCOPED_TRACE(op_name(c.kind));
        const Built fused = build(inst, c.fused);
        const Built parts = build(inst, c.parts);
        ASSERT_EQ(fused.graph.count_kind(c.kind), 1);

        // Builder metadata.
        const ValueInfo& fo = fused.graph.value(fused.out);
        const ValueInfo& po = parts.graph.value(parts.out);
        EXPECT_EQ(fo.level, po.level);
        EXPECT_EQ(fo.scale, po.scale);

        // The verifier's re-derived metadata and noise.
        const analysis::Analysis fa = analysis::analyze(fused.graph);
        const analysis::Analysis pa = analysis::analyze(parts.graph);
        EXPECT_FALSE(analysis::has_errors(fa.diags));
        EXPECT_FALSE(analysis::has_errors(pa.diags));
        const analysis::ValueFacts& ff = fa.values[fused.out];
        const analysis::ValueFacts& pf = pa.values[parts.out];
        EXPECT_EQ(ff.level, pf.level);
        EXPECT_EQ(ff.scale, pf.scale);
        EXPECT_NEAR(ff.noise_bits, pf.noise_bits, 1e-9);
        EXPECT_NEAR(ff.budget_bits, pf.budget_bits, 1e-9);

        // The lowered ops, field for field.
        const sim::Trace ft = lower_to_trace(fused.graph, inst);
        const sim::Trace pt = lower_to_trace(parts.graph, inst);
        ASSERT_EQ(ft.ops.size(), pt.ops.size());
        for (std::size_t k = 0; k < ft.ops.size(); ++k) {
            EXPECT_EQ(ft.ops[k], pt.ops[k]) << "op " << k;
        }

        // The pass that makes this kind finds it from the parts alone.
        passes::PassOptions opts = passes::PassOptions::none();
        opts.fuse = true;
        opts.group_rotations = true;
        const Graph rewritten =
            passes::PassManager(opts).optimize(parts.graph).graph;
        EXPECT_EQ(rewritten.count_kind(c.kind), 1);
        EXPECT_EQ(rewritten.num_nodes(), fused.graph.num_nodes());
    }
}

TEST(OpTable, PartsArePrimitives)
{
    for (int k = 0; k < kNumOpKinds; ++k) {
        const OpInfo& info = op_info(static_cast<OpKind>(k));
        EXPECT_EQ(static_cast<int>(info.kind), k);
        for (const OpKind part : info.parts()) {
            EXPECT_FALSE(op_is_composite(part)) << info.name;
            EXPECT_TRUE(op_info(part).sim.has_value()) << info.name;
        }
        if (info.parts().size() == 2) {
            EXPECT_EQ(op_fused(info.parts()[0], info.parts()[1]), info.kind);
        }
    }
    EXPECT_THROW(op_info(static_cast<OpKind>(kNumOpKinds)),
                 std::logic_error);
}

TEST(OpTable, RejectedNodeLeavesTheGraphUnchanged)
{
    // add_node runs every operand and precondition check before it
    // counts a use, so a caught builder error leaves a graph that
    // still verifies.
    const GraphTraits t = traits_for(hw::ins1());
    Graph g("rejected", t);
    const Value a = g.input(0, t.delta);
    EXPECT_THROW(g.hrescale(a), std::invalid_argument);
    EXPECT_THROW(g.hrot(a, 0), std::invalid_argument);
    g.mark_output(g.hadd(a, a));
    EXPECT_EQ(g.value(a.id).num_uses, 2); // the two hadd operand slots
    EXPECT_FALSE(analysis::has_errors(analysis::verify(g)));
}

TEST(OpTable, EvkAndArityColumnsMatchExecutorKeyResolution)
{
    static testing::BootTestEnv* be = new testing::BootTestEnv(7);
    testing::TestEnv& env = be->env;
    EvalResources all;
    all.eval = &env.evaluator;
    all.encoder = &env.encoder;
    all.mult_key = &env.mult_key;
    all.bootstrapper = be->boot.get();

    const auto failure = [](const EvalResources& res, const Graph& g) {
        try {
            Executor(res).run(g, Binding{});
        } catch (const std::invalid_argument& e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };
    for (const bool raw : {true, false}) {
        const Graph g =
            tmult_graph(hw::ins1(), raw ? passes::PassOptions::none()
                                        : passes::PassOptions{});
        std::set<EvkNeed> needs;
        for (const Node& n : g.nodes()) {
            EXPECT_EQ(n.inputs.size(),
                      static_cast<std::size_t>(op_info(n.kind).arity));
            needs.insert(op_info(n.kind).evk);
        }
        needs.erase(EvkNeed::kNone);
        EXPECT_EQ(needs, (std::set<EvkNeed>{EvkNeed::kMult,
                                            EvkNeed::kBootstrapper}));

        // Withholding a resource the table asks for fails plan
        // resolution; with every one supplied, the run gets past it
        // and fails on the unbound inputs instead.
        EvalResources no_boot = all;
        no_boot.bootstrapper = nullptr;
        EXPECT_NE(failure(no_boot, g).find("needs a bootstrapper"),
                  std::string::npos);
        EvalResources no_mult = all;
        no_mult.mult_key = nullptr;
        EXPECT_NE(failure(no_mult, g).find("needs a mult key"),
                  std::string::npos);
        EXPECT_NE(failure(all, g).find("missing ciphertext binding"),
                  std::string::npos);
    }
}

} // namespace
} // namespace bts::runtime
