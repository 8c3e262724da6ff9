#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <map>
#include <thread>

namespace e2e {

namespace {

thread_local std::vector<int> open_stack;

int
thread_track()
{
    static std::mutex mutex;
    static std::map<std::thread::id, int> tracks;
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = tracks.find(std::this_thread::get_id());
    if (it != tracks.end()) return it->second;
    const int id = static_cast<int>(tracks.size());
    tracks.emplace(std::this_thread::get_id(), id);
    return id;
}

/** Length of the union of [start, end) intervals clipped to [lo, hi). */
double
covered(std::vector<std::pair<double, double>> iv, double lo, double hi)
{
    std::sort(iv.begin(), iv.end());
    double total = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a) continue;
        if (a > cur_hi) {
            if (cur_hi > cur_lo) total += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
        } else {
            cur_hi = std::max(cur_hi, b);
        }
    }
    if (cur_hi > cur_lo) total += cur_hi - cur_lo;
    return total;
}

void
json_escape(const std::string& s, std::ostream& out)
{
    for (const char c : s) {
        if (c == '"' || c == '\\') out << '\\';
        out << c;
    }
}

} // namespace

SpanRecorder&
SpanRecorder::instance()
{
    static SpanRecorder r;
    return r;
}

int
SpanRecorder::open(const std::string& name)
{
    SpanRecord rec;
    rec.name = name;
    rec.parent = open_stack.empty() ? -1 : open_stack.back();
    rec.track = thread_track();
    rec.start_s = seconds_since(epoch_);
    int id = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int>(records_.size());
        records_.push_back(std::move(rec));
    }
    open_stack.push_back(id);
    return id;
}

void
SpanRecorder::close(int id)
{
    const double end = seconds_since(epoch_);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        records_[static_cast<std::size_t>(id)].end_s = end;
    }
    if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
}

int
SpanRecorder::add(const std::string& name, double start_s, double end_s,
                  int track, int parent)
{
    SpanRecord rec;
    rec.name = name;
    rec.start_s = start_s;
    rec.end_s = end_s;
    rec.parent = parent >= 0 || open_stack.empty() ? parent
                                                   : open_stack.back();
    rec.track = track;
    const std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(rec));
    return static_cast<int>(records_.size()) - 1;
}

std::vector<SpanRecord>
SpanRecorder::records() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return records_;
}

std::vector<LayerRow>
layer_table(const std::vector<SpanRecord>& spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const SpanRecord& s : spans) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.start_s, s.end_s});
        }
    }
    std::map<std::pair<std::string, std::string>, LayerRow> rows;
    std::map<std::string, LayerRow> unattributed;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord& s = spans[i];
        const double total = s.end_s - s.start_s;
        const double self =
            total - covered(children[i], s.start_s, s.end_s);
        const std::string parent =
            s.parent >= 0 ? spans[static_cast<std::size_t>(s.parent)].name
                          : "";
        LayerRow& row = rows[{parent, s.name}];
        row.parent = parent;
        row.name = s.name;
        ++row.count;
        row.total_s += total;
        row.self_s += self;
        if (!children[i].empty()) {
            LayerRow& u = unattributed[s.name];
            u.parent = s.name;
            u.name = "(unattributed)";
            ++u.count;
            u.total_s += self;
            u.self_s += self;
        }
    }
    std::vector<LayerRow> out;
    for (auto& [key, row] : rows) out.push_back(row);
    for (auto& [name, row] : unattributed) out.push_back(row);
    std::stable_sort(out.begin(), out.end(),
                     [](const LayerRow& a, const LayerRow& b) {
                         if (a.parent != b.parent) return a.parent < b.parent;
                         return a.total_s > b.total_s;
                     });
    return out;
}

void
print_layer_table(const std::vector<LayerRow>& rows, std::ostream& out)
{
    char line[256];
    std::snprintf(line, sizeof line, "%-30s %-34s %8s %12s %12s\n",
                  "parent", "span", "count", "total_ms", "self_ms");
    out << line;
    for (const LayerRow& r : rows) {
        std::snprintf(line, sizeof line, "%-30s %-34s %8zu %12.3f %12.3f\n",
                      r.parent.empty() ? "(root)" : r.parent.c_str(),
                      r.name.c_str(), r.count, r.total_s * 1e3,
                      r.self_s * 1e3);
        out << line;
    }
}

void
write_chrome_trace(const std::vector<SpanRecord>& spans, std::ostream& out)
{
    out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord& s : spans) {
        if (!first) out << ",";
        first = false;
        out << "{\"name\":\"";
        json_escape(s.name, out);
        out << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.track
            << ",\"ts\":" << s.start_s * 1e6
            << ",\"dur\":" << (s.end_s - s.start_s) * 1e6 << "}";
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
}

} // namespace e2e
