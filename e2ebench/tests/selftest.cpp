/**
 * @file
 * Self-tests of the benchmark's own machinery: the seeded arrival
 * schedule, latency accounting from due time, the percentile and SLO
 * helpers, the drift guard, the span table, and the output check.
 *
 *   python3 e2ebench/run.py --selftest
 *
 * Exit code 0 when every check passes.
 */
#include <cmath>
#include <cstdio>

#include "check.h"
#include "envs.h"
#include "schedule.h"
#include "serve.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace e2e;

int g_failures = 0;

#define EXPECT(cond)                                                          \
    do {                                                                      \
        if (!(cond)) {                                                        \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);       \
            ++g_failures;                                                     \
        }                                                                     \
    } while (0)

bool
near(double a, double b)
{
    return std::abs(a - b) < 1e-12;
}

void
schedule_is_a_function_of_the_seed()
{
    const auto a = poisson_schedule(7, kServeRatePerS, 30, kServeMix);
    const auto b = poisson_schedule(7, kServeRatePerS, 30, kServeMix);
    const auto c = poisson_schedule(8, kServeRatePerS, 30, kServeMix);
    EXPECT(!a.empty());
    EXPECT(a.size() == b.size());
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = a[i].due_s == b[i].due_s && a[i].kind == b[i].kind &&
               a[i].input_seed == b[i].input_seed;
    }
    EXPECT(same);
    bool differs = a.size() != c.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i) {
        differs = a[i].due_s != c[i].due_s || a[i].kind != c[i].kind;
    }
    EXPECT(differs);
    // Arrivals are ordered, inside the window, and the mix is honoured.
    const auto long_run = poisson_schedule(3, 50, 200, kServeMix);
    std::size_t interactive = 0;
    for (std::size_t i = 0; i < long_run.size(); ++i) {
        EXPECT(long_run[i].due_s < 200);
        if (i) EXPECT(long_run[i].due_s >= long_run[i - 1].due_s);
        if (is_interactive(long_run[i].kind)) ++interactive;
    }
    const double share =
        static_cast<double>(interactive) / static_cast<double>(long_run.size());
    const double want = kServeMix[0] + kServeMix[1];
    EXPECT(std::abs(share - want) < 0.01);
    // Every full block of kDeckSize arrivals holds the mix exactly.
    int counts[kNumJobKinds] = {};
    for (int i = 0; i < kDeckSize; ++i) {
        ++counts[static_cast<int>(long_run[kDeckSize + i].kind)];
    }
    for (int k = 0; k < kNumJobKinds; ++k) {
        EXPECT(counts[k] == static_cast<int>(std::lround(kServeMix[k] *
                                                         kDeckSize)));
    }
    const double rate = static_cast<double>(long_run.size()) / 200;
    EXPECT(rate > 47 && rate < 53);
}

void
latency_counts_from_due_time()
{
    // Due at 1.0 s, submitted late at 1.5 s, queued 0.2 s, ran 0.3 s:
    // the job's latency includes the 0.5 s the generator was late.
    EXPECT(near(latency_from_due(1.0, 1.5, 0.2, 0.3), 1.0));
    JobRecord j;
    j.due_s = 2.0;
    j.admitted_s = 2.0;
    j.queue_s = 0.25;
    j.exec_s = 0.5;
    EXPECT(near(j.latency_s(), 0.75));
}

void
percentiles_and_attainment()
{
    const std::vector<double> xs = {5, 1, 4, 2, 3};
    EXPECT(near(percentile(xs, 50), 3));
    EXPECT(near(percentile(xs, 25), 2));
    EXPECT(near(percentile(xs, 90), 4.6));
    EXPECT(near(percentile(xs, 0), 1));
    EXPECT(near(percentile(xs, 100), 5));
    EXPECT(near(percentile({}, 50), 0));
    const Summary s = summarize({1, 2, 3, 4});
    EXPECT(near(s.median, 2.5) && near(s.q1, 1.75) && near(s.q3, 3.25));
    EXPECT(s.n == 4);

    // Within limit, over limit, failed-but-fast (a miss), at the limit.
    const std::vector<SloRecord> recs = {
        {0.01, 0.05, false}, {0.2, 0.05, false}, {0.01, 0.05, true},
        {1.0, 1.0, false}};
    EXPECT(near(slo_attainment(recs), 0.5));
    EXPECT(near(slo_attainment({}), 0));
    EXPECT(near(precision_bits(0.25), 2));
    EXPECT(near(precision_bits(0), 64));
}

void
drift_guard_compares_window_halves()
{
    EXPECT(near(round_drift({1, 1, 2, 2}), 1));
    EXPECT(near(round_drift({2, 2, 1, 1}), -0.5));
    // The middle round of an odd count goes to the second half.
    EXPECT(near(round_drift({1, 3, 4, 5, 1}), 1));
    EXPECT(near(round_drift({1}), 0));
    EXPECT(std::abs(round_drift({1, 1.2, 1, 1.2})) <= kDriftLimit);
}

void
layer_table_adds_up()
{
    // parent [0, 10) with children [1, 4) and [3, 6): self = 10 - 5.
    std::vector<SpanRecord> spans = {{"p", 0, 10, -1, 0},
                                     {"c", 1, 4, 0, 0},
                                     {"c", 3, 6, 0, 0}};
    const auto rows = layer_table(spans);
    double unattributed = -1;
    double child_total = 0;
    for (const LayerRow& r : rows) {
        if (r.parent == "p" && r.name == "(unattributed)") {
            unattributed = r.self_s;
        }
        if (r.parent == "p" && r.name == "c") child_total = r.total_s;
    }
    EXPECT(near(unattributed, 5));
    EXPECT(near(child_total, 6));
}

void
output_check_rejects_a_perturbed_ciphertext()
{
    bts::CkksParams p;
    p.n = 1 << 10;
    p.max_level = 2;
    p.dnum = 1;
    p.hamming_weight = 32;
    p.seed = 99;
    CkksEnv env(p);
    const SlotVec x = random_vec(env.encoder.max_slots(), 0.5, 5);
    Ciphertext ct = env.encrypt(x, 2);

    OutputCheck check;
    EXPECT(check.check(env.decrypt(ct), x, 1e-3));
    EXPECT(check.min_bits() > 10);

    // Corrupt one residue limb of the body: the decryption is garbage.
    bts::u64* limb = ct.b.data();
    for (std::size_t i = 0; i < ct.b.degree(); ++i) {
        limb[i] = (limb[i] + (ct.b.prime(0) >> 3)) % ct.b.prime(0);
    }
    EXPECT(!check.check(env.decrypt(ct), x, 1e-3));
    EXPECT(check.attempted() == 2 && check.failed() == 1);
    check.record_error("test");
    EXPECT(check.attempted() == 3 && check.failed() == 2);
}

} // namespace

int
main()
{
    schedule_is_a_function_of_the_seed();
    latency_counts_from_due_time();
    percentiles_and_attainment();
    drift_guard_compares_window_halves();
    layer_table_adds_up();
    output_check_rejects_a_perturbed_ciphertext();
    if (g_failures == 0) std::printf("e2ebench selftest: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
