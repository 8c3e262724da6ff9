/**
 * @file
 * Output check: every measured output is decrypted after timing and
 * compared against its plaintext reference. A miss counts as a failed
 * operation; passing outputs feed the precision_bits metric.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "envs.h"
#include "stats.h"

namespace e2e {

class OutputCheck
{
  public:
    /** Record one operation whose outputs are @p he; it passes when
     *  every output is within @p tol of its reference in every slot. */
    bool
    check(const std::vector<SlotVec>& he, const std::vector<SlotVec>& ref,
          double tol, const std::string& what = "output")
    {
        ++attempted_;
        double worst = he.size() == ref.size() && !he.empty() ? 0 : INFINITY;
        for (std::size_t i = 0; i < he.size() && i < ref.size(); ++i) {
            worst = std::max(worst, max_err(he[i], ref[i]));
        }
        if (!(worst <= tol)) {
            ++failed_;
            if (misses_.size() < kMaxMisses) {
                misses_.push_back(what + " max_err=" + std::to_string(worst));
            }
            return false;
        }
        min_bits_ = std::min(min_bits_, precision_bits(worst));
        return true;
    }

    bool
    check(const SlotVec& he, const SlotVec& ref, double tol,
          const std::string& what = "output")
    {
        return check(std::vector<SlotVec>{he}, std::vector<SlotVec>{ref},
                     tol, what);
    }

    /** An operation that threw instead of producing outputs. */
    void
    record_error(const std::string& what)
    {
        ++attempted_;
        ++failed_;
        if (misses_.size() < kMaxMisses) misses_.push_back(what + " threw");
    }

    /** Add @p other's operations to this check. */
    void
    merge(const OutputCheck& other)
    {
        attempted_ += other.attempted_;
        failed_ += other.failed_;
        min_bits_ = std::min(min_bits_, other.min_bits_);
        for (const std::string& m : other.misses_) {
            if (misses_.size() < kMaxMisses) misses_.push_back(m);
        }
    }

    std::size_t attempted() const { return attempted_; }
    std::size_t failed() const { return failed_; }
    /** Minimum precision over passing outputs (64 before any pass). */
    double min_bits() const { return min_bits_; }
    /** The first few misses, for the report. */
    const std::vector<std::string>& misses() const { return misses_; }

  private:
    static constexpr std::size_t kMaxMisses = 8;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
    double min_bits_ = 64;
    std::vector<std::string> misses_;
};

} // namespace e2e
