#include "runtime/telemetry/profile.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace bts::runtime::telemetry {

ProfileReport
profile_from_trace(const Trace& trace)
{
    std::map<std::string, OpKindProfile> by_op;
    ProfileReport out;
    out.dropped_events = trace.total_dropped();
    for (const ThreadTrace& t : trace.threads) {
        for (const TraceEvent& ev : t.events) {
            if (ev.cat != Category::kNode ||
                ev.kind != EventKind::kSpan) {
                continue;
            }
            OpKindProfile& row = by_op[ev.name ? ev.name : ""];
            if (row.count == 0) row.op = ev.name ? ev.name : "";
            row.count += 1;
            row.measured_s +=
                static_cast<double>(ev.t1_ns - ev.t0_ns) / 1e9;
            row.predicted_s += ev.cost_s;
        }
    }
    out.ops.reserve(by_op.size());
    for (auto& [op, row] : by_op) {
        out.measured_total_s += row.measured_s;
        out.predicted_total_s += row.predicted_s;
        out.ops.push_back(std::move(row));
    }
    std::sort(out.ops.begin(), out.ops.end(),
              [](const OpKindProfile& a, const OpKindProfile& b) {
                  return a.measured_s > b.measured_s;
              });
    return out;
}

std::map<std::string, double>
predicted_by_kind(const Graph& g, const analysis::ResourceSummary& summary)
{
    std::map<std::string, double> out;
    const std::size_t n =
        std::min(g.num_nodes(), summary.nodes.size());
    for (std::size_t i = 0; i < n; ++i) {
        out[op_name(g.node(i).kind)] += summary.nodes[i].cost_s;
    }
    return out;
}

namespace {

/** Share of a total, as a percentage (0 when the total is 0). */
double
share(double part, double total)
{
    return total > 0 ? 100.0 * part / total : 0.0;
}

/** A time or ratio with three significant digits at any magnitude
 *  (fixed point would print sub-microsecond predictions as zeros). */
std::string
sig(double v)
{
    std::ostringstream os;
    os << std::scientific << std::setprecision(3) << v;
    return os.str();
}

} // namespace

std::string
render_profile_text(const ProfileReport& r)
{
    std::ostringstream os;
    os << std::left << std::setw(16) << "op" << std::right
       << std::setw(8) << "count" << std::setw(14) << "measured(s)"
       << std::setw(14) << "predicted(s)" << std::setw(10) << "p/m"
       << std::setw(9) << "m-share" << std::setw(9) << "p-share"
       << '\n';
    os << std::fixed << std::setprecision(1);
    for (const OpKindProfile& row : r.ops) {
        os << std::left << std::setw(16) << row.op << std::right
           << std::setw(8) << row.count << std::setw(14)
           << sig(row.measured_s) << std::setw(14) << sig(row.predicted_s)
           << std::setw(10)
           << sig(row.measured_s > 0 ? row.predicted_s / row.measured_s
                                     : 0.0)
           << std::setw(8) << share(row.measured_s, r.measured_total_s)
           << '%' << std::setw(8)
           << share(row.predicted_s, r.predicted_total_s) << '%' << '\n';
    }
    os << std::left << std::setw(16) << "TOTAL" << std::right
       << std::setw(8) << "" << std::setw(14) << sig(r.measured_total_s)
       << std::setw(14) << sig(r.predicted_total_s) << std::setw(10)
       << sig(r.measured_total_s > 0
                  ? r.predicted_total_s / r.measured_total_s
                  : 0.0)
       << '\n';
    if (r.dropped_events > 0) {
        os << "WARNING: " << r.dropped_events
           << " events dropped (buffer full) — table undercounts\n";
    }
    return os.str();
}

std::string
render_profile_json(const ProfileReport& r)
{
    std::ostringstream os;
    os << "{\"ops\":[";
    for (std::size_t i = 0; i < r.ops.size(); ++i) {
        const OpKindProfile& row = r.ops[i];
        os << (i == 0 ? "" : ",") << "{\"op\":\"" << row.op
           << "\",\"count\":" << row.count
           << ",\"measured_s\":" << row.measured_s
           << ",\"predicted_s\":" << row.predicted_s
           << ",\"predicted_over_measured\":"
           << (row.measured_s > 0 ? row.predicted_s / row.measured_s
                                  : 0.0)
           << '}';
    }
    os << "],\"measured_total_s\":" << r.measured_total_s
       << ",\"predicted_total_s\":" << r.predicted_total_s
       << ",\"dropped_events\":" << r.dropped_events << '}';
    return os.str();
}

} // namespace bts::runtime::telemetry
