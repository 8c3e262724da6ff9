/**
 * @file
 * The traced run's span recorder. Spans are recorded only in the
 * benchmark's own code, around each call into a library layer, and
 * kept in memory until the run ends. From them the run prints a
 * per-layer table (each parent's children with their self time, plus
 * an "unattributed" row for the parent time no child covers) and writes
 * a Chrome trace-event JSON file.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/** Seconds since @p t0. */
inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord
{
    std::string name;  //!< "layer/call", e.g. "ckks/evaluator.mult"
    double start_s = 0; //!< offset from the recorder's epoch
    double end_s = 0;
    int parent = -1; //!< index into the record list; -1 = root
    int track = 0;   //!< Chrome trace thread id
};

/**
 * Process-wide recorder. Disabled recorders make every Span a no-op;
 * recording is thread-safe, with parents tracked per thread.
 */
class SpanRecorder
{
  public:
    static SpanRecorder& instance();

    void set_enabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    Clock::time_point epoch() const { return epoch_; }

    /** Open a span under the calling thread's innermost open span. */
    int open(const std::string& name);
    void close(int id);
    /** Record a span with explicit times (e.g. a served job, timed
     *  from its due time to its completion) under @p parent, or under
     *  the calling thread's innermost open span when @p parent < 0.
     *  Returns its id. */
    int add(const std::string& name, double start_s, double end_s,
            int track, int parent = -1);

    std::vector<SpanRecord> records() const;

  private:
    SpanRecorder() : epoch_(Clock::now()) {}

    bool enabled_ = false;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<SpanRecord> records_; //!< guarded by mutex_
};

/** RAII span; free when the recorder is disabled. */
class TraceSpan
{
  public:
    explicit TraceSpan(const char* name)
    {
        SpanRecorder& r = SpanRecorder::instance();
        if (r.enabled()) id_ = r.open(name);
    }
    ~TraceSpan()
    {
        if (id_ >= 0) SpanRecorder::instance().close(id_);
    }
    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;

  private:
    int id_ = -1;
};

/** One row of the per-layer table. */
struct LayerRow
{
    std::string parent; //!< "" for root spans
    std::string name;   //!< span name, or "(unattributed)"
    std::size_t count = 0;
    double total_s = 0; //!< summed span durations
    double self_s = 0;  //!< durations minus the union of child spans
};

/**
 * Aggregate spans by (parent name, name). Every parent name also gets
 * an "(unattributed)" row holding its self time, so each parent's
 * children rows plus that row add up to the parent's total.
 */
std::vector<LayerRow> layer_table(const std::vector<SpanRecord>& spans);

void print_layer_table(const std::vector<LayerRow>& rows, std::ostream& out);

/** Chrome trace-event JSON (complete events, one track per thread). */
void write_chrome_trace(const std::vector<SpanRecord>& spans,
                        std::ostream& out);

} // namespace e2e
