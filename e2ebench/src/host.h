/**
 * @file
 * Host fingerprint and drift guard. Every result records what it ran
 * on and how the binary was built, plus a fixed reference kernel (one
 * 2^12-point single-limb forward NTT) timed just before and just after
 * the measured window and the CPU steal over it, so a host that changed
 * speed shows in the result.
 */
#pragma once

#include <ostream>
#include <string>

namespace e2e {

struct HostInfo
{
    std::string cpu_model;
    bool avx2 = false;
    bool avx512f = false;
    bool avx512ifma = false;
    int vcpus = 0;
    long l1d_kb = 0;
    long l2_kb = 0;
    long l3_kb = 0;
    std::string compiler;
    std::string build_type;
    std::string telemetry; //!< BTS_TELEMETRY setting of the build
    std::string avx2_build; //!< BTS_USE_AVX2 setting of the build
    std::string commit;     //!< git commit, or "unknown"
};

/**
 * The drift guard's record of the measured window. The reference kernel
 * is timed just before and just after it, and the share of CPU time the
 * hypervisor gave to other guests (steal, from /proc/stat) is taken over
 * it. The window's own closed-loop rounds decide whether it ran on a
 * steady host (see round_drift in workloads.h): a single-limb kernel
 * lands in a 2x faster or slower mode from one batch to the next on a
 * shared host, so it cannot decide this.
 */
struct Drift
{
    double ref_start_us = 0;
    double ref_end_us = 0;
    double steal_pct = -1;  //!< -1 where /proc/stat is unreadable
    double round_drift = 0; //!< second-half / first-half median - 1
    int windows = 0;
};

/** Read the CPU (cpuid and sysconf only; no files) and build settings. */
HostInfo host_info(const std::string& commit);

/** Steal and total ticks of all CPUs so far, from /proc/stat. */
struct CpuTicks
{
    unsigned long long steal = 0;
    unsigned long long total = 0; //!< 0 where /proc/stat is unreadable
};
CpuTicks cpu_ticks();
/** Steal share of the ticks between @p a and @p b, in percent; -1 when
 *  either reading failed or no tick passed. */
double steal_pct(const CpuTicks& a, const CpuTicks& b);

/** Median microseconds of the reference kernel over @p reps
 *  repetitions, on the calling thread. */
double reference_kernel_us(int reps = 201);

/** One JSON object, keys in a fixed order: @p h, then the last
 *  window's reference kernel times, steal and round drift, and how many
 *  windows were measured. */
void write_host_json(const HostInfo& h, const Drift& d, std::ostream& out);

} // namespace e2e
