/**
 * @file
 * e2ebench: run one workload of the end-to-end benchmark and print
 * every metric by name with its unit, quartiles and sample count, then
 * one JSON result line.
 *
 *   e2ebench --workload serve_mix|boot_refresh|he_ops_wide --seed N
 *            --seconds S --trace 0|1 [--commit SHA] [--out DIR]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 is the traced
 * run: it reports the per-layer metrics, prints the per-layer span
 * table, and writes DIR/<workload>.layers.txt and the Chrome trace
 * DIR/<workload>.trace.json. Exit code 0 on success, 2 on usage errors,
 * 1 when the run itself failed.
 */
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "host.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace e2e;

struct Args
{
    RunOptions run;
    std::string commit;
    std::string out_dir; //!< where the traced run writes its files
};

std::optional<Args>
parse_args(int argc, char** argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        try {
            if (key == "--workload") {
                a.run.workload = val;
                have_workload = true;
            } else if (key == "--seed") {
                a.run.seed = std::stoull(val);
            } else if (key == "--seconds") {
                a.run.seconds = std::stod(val);
            } else if (key == "--trace") {
                a.run.trace = std::stoi(val) != 0;
            } else if (key == "--commit") {
                a.commit = val;
            } else if (key == "--out") {
                a.out_dir = val;
            } else {
                std::cerr << "unknown argument: " << key << "\n";
                return std::nullopt;
            }
        } catch (const std::exception&) {
            std::cerr << "bad value for " << key << ": " << val << "\n";
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || !have_workload || !(a.run.seconds > 0)) {
        std::cerr << "usage: e2ebench --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--commit SHA] [--out DIR]\n";
        return std::nullopt;
    }
    return a;
}

/** Full-precision JSON number; non-finite values (never expected)
 *  become 0 so the line stays valid JSON. */
std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
    return os.str();
}

void
print_metric(const Metric& m, const char* prefix)
{
    std::printf("%s%-40s %14.6g %-6s median=%.6g q1=%.6g q3=%.6g n=%zu\n",
                prefix, m.name.c_str(), m.value, m.unit.c_str(), m.value,
                m.q1, m.q3, m.n);
}

void
write_trace_files(const std::string& dir, const std::string& workload,
                  const std::vector<LayerRow>& rows,
                  const std::vector<SpanRecord>& spans)
{
    std::filesystem::create_directories(dir);
    std::ofstream table(dir + "/" + workload + ".layers.txt");
    print_layer_table(rows, table);
    std::ofstream trace(dir + "/" + workload + ".trace.json");
    write_chrome_trace(spans, trace);
    std::printf("wrote %s/%s.layers.txt and %s.trace.json (%zu spans)\n",
                dir.c_str(), workload.c_str(), workload.c_str(),
                spans.size());
}

int
run(const Args& args)
{
    const HostInfo host = host_info(args.commit);
    std::printf("# e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.run.workload.c_str(),
                static_cast<unsigned long long>(args.run.seed),
                args.run.seconds, args.run.trace ? 1 : 0);

    const RunResult r = run_workload(args.run);

    std::ostringstream host_json;
    write_host_json(host, r.drift, host_json);
    std::printf("host %s\n", host_json.str().c_str());

    if (args.run.trace) {
        const std::vector<SpanRecord> spans =
            SpanRecorder::instance().records();
        const std::vector<LayerRow> rows = layer_table(spans);
        std::printf("# per-layer span table (self time excludes child "
                    "spans; '(unattributed)' is each parent's self time)\n");
        print_layer_table(rows, std::cout);
        std::cout.flush();
        if (!args.out_dir.empty()) {
            write_trace_files(args.out_dir, args.run.workload, rows, spans);
        }
    }
    for (const Metric& m : r.metrics) {
        print_metric(m, args.run.trace ? "layer " : "metric ");
    }
    std::printf("check attempted=%zu failed=%zu min_precision_bits=%.3f\n",
                r.check.attempted(), r.check.failed(), r.check.min_bits());
    for (const std::string& m : r.check.misses()) {
        std::printf("miss %s\n", m.c_str());
    }

    std::ostringstream json;
    json << "{\"correct\": "
         << (r.check.failed() == 0 && r.check.attempted() > 0 ? "true"
                                                               : "false")
         << ", \"attempted\": " << r.check.attempted()
         << ", \"failed\": " << r.check.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
             << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::fflush(stdout);
    std::cout << json.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::optional<Args> args = parse_args(argc, argv);
    if (!args) return 2;
    try {
        return run(*args);
    } catch (const std::exception& e) {
        std::cerr << "e2ebench: " << e.what() << "\n";
        return 1;
    }
}
