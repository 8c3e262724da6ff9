#include <gtest/gtest.h>

#include "baselines/published.h"
#include "runtime/graph_workloads.h"
#include "runtime/lowering.h"
#include "sim/engine.h"
#include "workloads/workloads.h"

namespace bts::workloads {
namespace {

using sim::HeOpKind;

int
count_kind(const Trace& t, HeOpKind kind)
{
    int n = 0;
    for (const auto& op : t.ops) n += (op.kind == kind);
    return n;
}

/** The T_mult,a/slot microbenchmark (Eq. 8) as the simulator runs it. */
Trace
tmult_microbench(const hw::CkksInstance& inst)
{
    return runtime::lower_to_trace(runtime::tmult_graph(inst), inst);
}

TEST(BootstrapPlan, OpMixAndLevels)
{
    sim::TraceBuilder b("boot");
    const int out = append_bootstrap(b, hw::ins1(), b.fresh_id());
    EXPECT_GE(out, 0);
    const auto& t = b.trace();
    EXPECT_EQ(t.bootstrap_count, 1);
    EXPECT_EQ(count_kind(t, HeOpKind::kModRaise), 1);
    EXPECT_EQ(count_kind(t, HeOpKind::kConj), 1);
    // ">40 evks" worth of rotations plus the EvalMod HMults.
    EXPECT_GT(count_kind(t, HeOpKind::kHRot), 40);
    EXPECT_EQ(count_kind(t, HeOpKind::kHMult), 30); // 15 per component
    for (const auto& op : t.ops) {
        EXPECT_TRUE(op.in_bootstrap);
        EXPECT_GE(op.level, 1);
        EXPECT_LE(op.level, hw::ins1().max_level);
    }
}

TEST(BootstrapPlan, LevelsDescendThroughStages)
{
    sim::TraceBuilder b("boot");
    append_bootstrap(b, hw::ins2(), b.fresh_id());
    const auto& ops = b.trace().ops;
    EXPECT_EQ(ops.front().level, hw::ins2().max_level);
    // The last StC stage sits at the bottom of the L_boot budget.
    const int bottom = hw::ins2().max_level - hw::ins2().boot_levels + 1;
    EXPECT_EQ(ops.back().level, bottom);
}

class InstanceSweep
    : public ::testing::TestWithParam<int>
{
  protected:
    hw::CkksInstance
    inst() const
    {
        return hw::table4_instances()[GetParam()];
    }
};

TEST_P(InstanceSweep, MicrobenchUsesAllUsableLevels)
{
    const auto t = tmult_microbench(inst());
    EXPECT_EQ(count_kind(t, HeOpKind::kHMult) -
                  30, // EvalMod HMults inside the bootstrap
              inst().usable_levels());
    EXPECT_EQ(t.bootstrap_count, 1);
}

TEST_P(InstanceSweep, TracesRespectLevelBounds)
{
    for (const auto& t :
         {helr(inst()), resnet20(inst()), sorting(inst())}) {
        for (const auto& op : t.ops) {
            EXPECT_GE(op.level, 1) << t.name;
            EXPECT_LE(op.level, inst().max_level) << t.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Table4, InstanceSweep, ::testing::Values(0, 1, 2));

TEST(Workloads, ResnetBootstrapCountsMatchTable6)
{
    // Paper: 53 / 22 / 19 bootstraps for INS-1/2/3.
    EXPECT_NEAR(resnet20(hw::ins1()).bootstrap_count, 53, 4);
    EXPECT_NEAR(resnet20(hw::ins2()).bootstrap_count, 22, 4);
    EXPECT_NEAR(resnet20(hw::ins3()).bootstrap_count, 19, 5);
}

TEST(Workloads, SortingBootstrapOrdering)
{
    // Paper: 521 / 306 / 229 — monotone decreasing in usable levels.
    const int b1 = sorting(hw::ins1()).bootstrap_count;
    const int b2 = sorting(hw::ins2()).bootstrap_count;
    const int b3 = sorting(hw::ins3()).bootstrap_count;
    EXPECT_GT(b1, b2);
    EXPECT_GT(b2, b3);
    EXPECT_NEAR(b1, 521, 521 * 0.15);
}

TEST(Workloads, HelrBootstrapsScaleWithUsableLevels)
{
    EXPECT_GT(helr(hw::ins1()).bootstrap_count,
              helr(hw::ins2()).bootstrap_count);
    EXPECT_GE(helr(hw::ins2()).bootstrap_count,
              helr(hw::ins3()).bootstrap_count);
}

TEST(EndToEnd, HeadlineSpeedupsHold)
{
    // The reproduction's headline shape: BTS beats the CPU by 3+ orders
    // of magnitude on every workload (paper: 1,306x HELR, 5,556x
    // ResNet-20, 1,482x sorting, 2,237x Tmult).
    const sim::BtsConfig hwcfg;
    const auto cpu = baselines::lattigo_cpu();

    const auto i2 = hw::ins2();
    const auto r_tmult = sim::BtsSimulator(hwcfg, i2)
                             .run(tmult_microbench(i2));
    EXPECT_GT(cpu.tmult_a_slot_ns / r_tmult.tmult_a_slot_ns, 1000);
    EXPECT_LT(cpu.tmult_a_slot_ns / r_tmult.tmult_a_slot_ns, 5000);

    const auto r_helr = sim::BtsSimulator(hwcfg, i2).run(helr(i2));
    const double helr_ms = r_helr.total_s * 1e3 / 30;
    EXPECT_GT(cpu.helr_iter_ms / helr_ms, 800);

    const auto i1 = hw::ins1();
    const auto r_rn = sim::BtsSimulator(hwcfg, i1).run(resnet20(i1));
    EXPECT_GT(cpu.resnet20_s / r_rn.total_s, 2000);
    EXPECT_LT(cpu.resnet20_s / r_rn.total_s, 20000);

    const auto r_sort = sim::BtsSimulator(hwcfg, i1).run(sorting(i1));
    EXPECT_GT(cpu.sorting_s / r_sort.total_s, 700);
}

TEST(EndToEnd, ResnetPrefersSmallDnum)
{
    // Section 6.3 "parameter selection in retrospect": when the
    // bootstrap share is small, HE-op complexity dominates and the
    // smaller-dnum INS-1 wins ResNet-20.
    const sim::BtsConfig hwcfg;
    double times[3];
    for (int i = 0; i < 3; ++i) {
        const auto inst = hw::table4_instances()[i];
        times[i] =
            sim::BtsSimulator(hwcfg, inst).run(resnet20(inst)).total_s;
    }
    EXPECT_LT(times[0], times[1]);
    EXPECT_LT(times[1], times[2]);
}

TEST(EndToEnd, BootstrapShareShape)
{
    // Fig. 7b: bootstrap dominates the microbench; ResNet-20's share is
    // the smallest of the four workloads.
    const sim::BtsConfig hwcfg;
    const auto inst = hw::ins1();
    const sim::BtsSimulator s(hwcfg, inst);
    const auto micro = s.run(tmult_microbench(inst));
    const auto rn = s.run(resnet20(inst));
    const double micro_share = micro.boot_s / micro.total_s;
    const double rn_share = rn.boot_s / rn.total_s;
    EXPECT_GT(micro_share, 0.5);
    EXPECT_LT(rn_share, micro_share);
}

TEST(Baselines, PublishedNumbersConsistent)
{
    const auto all = baselines::all_baselines();
    ASSERT_EQ(all.size(), 4u);
    // Fig. 6 relations: Lattigo = 2237 x 45.5ns; F1 2.5x slower than
    // Lattigo; F1+ = 824 x 45.5ns.
    EXPECT_NEAR(baselines::lattigo_cpu().tmult_a_slot_ns / 1e3, 101.8,
                0.1);
    EXPECT_NEAR(baselines::f1().tmult_a_slot_ns /
                    baselines::lattigo_cpu().tmult_a_slot_ns,
                2.5, 0.01);
    EXPECT_GT(baselines::f1().tmult_a_slot_ns,
              baselines::lattigo_cpu().tmult_a_slot_ns);
    // Only F1/F1+ are single-slot bootstrappers.
    EXPECT_EQ(baselines::f1().refreshed_slots, 1);
    EXPECT_EQ(baselines::lattigo_cpu().refreshed_slots, 32768);
    EXPECT_EQ(baselines::gpu_100x().refreshed_slots, 65536);
}

} // namespace
} // namespace bts::workloads
