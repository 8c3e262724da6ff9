/**
 * @file
 * Open-loop arrival schedule for the served workload: Poisson arrivals
 * at a fixed rate, each tagged with a job kind dealt from a fixed mix.
 * A pure function of the seed, so two runs with one seed offer the
 * server exactly the same load.
 */
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/random.h"

namespace e2e {

/** Job kinds of the served mix. dot and poly form the interactive
 *  class, resnet and helr the app class. */
enum class JobKind { kDot, kPoly, kResnet, kHelr };
inline constexpr int kNumJobKinds = 4;

inline const char*
job_kind_name(JobKind k)
{
    switch (k) {
    case JobKind::kDot: return "dot";
    case JobKind::kPoly: return "poly";
    case JobKind::kResnet: return "resnet";
    case JobKind::kHelr: return "helr";
    }
    return "?";
}

inline bool
is_interactive(JobKind k)
{
    return k == JobKind::kDot || k == JobKind::kPoly;
}

struct Arrival
{
    double due_s = 0; //!< offset from the start of the window
    JobKind kind = JobKind::kDot;
    std::uint64_t input_seed = 0; //!< seeds this job's input draw
};

/** Kinds are dealt from a seeded shuffle of this many arrivals, so
 *  each block holds the mix exactly (weights * kDeckSize each). */
inline constexpr int kDeckSize = 20;

/**
 * Arrivals in [0, window_s) at @p rate_per_s, with job kinds dealt in
 * proportion @p mix (one weight per JobKind, summing to 1; each weight
 * times kDeckSize must be whole) from a shuffled deck per kDeckSize
 * arrivals. Dealing keeps every run's class shares at the mix, so a
 * class median cannot flip between its kinds from seed to seed.
 */
inline std::vector<Arrival>
poisson_schedule(std::uint64_t seed, double rate_per_s, double window_s,
                 const double (&mix)[kNumJobKinds])
{
    bts::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed);
    std::vector<JobKind> deck;
    for (int k = 0; k < kNumJobKinds; ++k) {
        const auto count = static_cast<int>(std::lround(mix[k] * kDeckSize));
        deck.insert(deck.end(), static_cast<std::size_t>(count),
                    static_cast<JobKind>(k));
    }
    std::vector<Arrival> out;
    double t = 0;
    for (std::size_t dealt = 0;; ++dealt) {
        // 1 - u lies in (0, 1], so the log is finite.
        t += -std::log(1.0 - rng.uniform_real()) / rate_per_s;
        if (t >= window_s) break;
        const std::size_t pos = dealt % deck.size();
        if (pos == 0) { // reshuffle (Fisher-Yates) for the next block
            for (std::size_t i = deck.size() - 1; i > 0; --i) {
                std::swap(deck[i], deck[rng.uniform(i + 1)]);
            }
        }
        out.push_back({t, deck[pos], rng.next()});
    }
    return out;
}

/** Latency of a served job measured from when it was due, so a stall
 *  in the generator or at admission is charged to the jobs it delays. */
inline double
latency_from_due(double due_s, double admitted_s, double queue_s,
                 double exec_s)
{
    return (admitted_s - due_s) + queue_s + exec_s;
}

} // namespace e2e
