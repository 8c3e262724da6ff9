/**
 * @file
 * Order statistics and service-level helpers shared by every workload:
 * quartile summaries of timing samples, nearest-rank percentiles, and
 * SLO attainment over (latency, limit, failed) records.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace e2e {

/**
 * Percentile @p p in [0, 100] of @p xs by linear interpolation between
 * closest ranks (the "inclusive" method, numpy's default). 0 for an
 * empty sample.
 */
inline double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty()) return 0;
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

/** Median, quartiles and count of a timing sample. */
struct Summary
{
    double median = 0;
    double q1 = 0;
    double q3 = 0;
    std::size_t n = 0;
};

inline Summary
summarize(const std::vector<double>& xs)
{
    return {percentile(xs, 50), percentile(xs, 25), percentile(xs, 75),
            xs.size()};
}

/** One request as the SLO sees it. */
struct SloRecord
{
    double latency_s = 0;
    double limit_s = 0;
    bool failed = false;
};

/** Share of requests that succeeded within their limit; a failed
 *  request counts as a miss. 0 for an empty sample. */
inline double
slo_attainment(const std::vector<SloRecord>& records)
{
    if (records.empty()) return 0;
    std::size_t met = 0;
    for (const SloRecord& r : records) {
        if (!r.failed && r.latency_s <= r.limit_s) ++met;
    }
    return static_cast<double>(met) / static_cast<double>(records.size());
}

/** -log2 of a maximum absolute error: the bits of precision an output
 *  carries. An exact output is capped at 64 bits. */
inline double
precision_bits(double max_abs_err)
{
    return max_abs_err <= 0 ? 64.0 : std::min(64.0, -std::log2(max_abs_err));
}

} // namespace e2e
