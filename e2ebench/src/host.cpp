#include "host.h"

#include <cpuid.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/random.h"
#include "math/ntt.h"
#include "math/prime_gen.h"
#include "spans.h"
#include "stats.h"

namespace e2e {

namespace {

std::string
cpu_brand()
{
    unsigned int regs[12] = {};
    unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext < 0x80000004u) return "unknown";
    for (unsigned int i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
}

long
cache_kb(int name)
{
    const long bytes = sysconf(name);
    return bytes > 0 ? bytes / 1024 : 0;
}

} // namespace

HostInfo
host_info(const std::string& commit)
{
    HostInfo h;
    h.cpu_model = cpu_brand();
    __builtin_cpu_init();
    h.avx2 = __builtin_cpu_supports("avx2");
    h.avx512f = __builtin_cpu_supports("avx512f");
    h.avx512ifma = __builtin_cpu_supports("avx512ifma");
    h.vcpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
    h.l1d_kb = cache_kb(_SC_LEVEL1_DCACHE_SIZE);
    h.l2_kb = cache_kb(_SC_LEVEL2_CACHE_SIZE);
    h.l3_kb = cache_kb(_SC_LEVEL3_CACHE_SIZE);
    h.compiler = E2E_COMPILER;
    h.build_type = E2E_BUILD_TYPE;
    h.telemetry = E2E_TELEMETRY;
    h.avx2_build = E2E_AVX2;
    h.commit = commit.empty() ? "unknown" : commit;
    return h;
}

double
reference_kernel_us(int reps)
{
    constexpr std::size_t kN = 1 << 12;
    static const bts::NttTables tables(
        kN, bts::generate_ntt_primes(50, 2 * kN, 1).front());
    bts::Xoshiro256 rng(12);
    std::vector<bts::u64> data(kN);
    for (auto& x : data) x = rng.uniform(tables.modulus());
    std::vector<double> us;
    for (int rep = 0; rep < reps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        tables.forward(data.data());
        us.push_back(seconds_since(t0) * 1e6);
    }
    return percentile(us, 50);
}

CpuTicks
cpu_ticks()
{
    // "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream in("/proc/stat");
    std::string line, label;
    if (!std::getline(in, line)) return {};
    std::istringstream fields(line);
    fields >> label;
    CpuTicks t;
    unsigned long long v = 0;
    for (int i = 0; i < 8 && fields >> v; ++i) {
        t.total += v;
        if (i == 7) t.steal = v;
    }
    return label == "cpu" ? t : CpuTicks{};
}

double
steal_pct(const CpuTicks& a, const CpuTicks& b)
{
    if (a.total == 0 || b.total <= a.total) return -1;
    return 100.0 * static_cast<double>(b.steal - a.steal) /
           static_cast<double>(b.total - a.total);
}

void
write_host_json(const HostInfo& h, const Drift& d, std::ostream& out)
{
    out << "{\"cpu_model\": \"" << h.cpu_model << "\", \"avx2\": "
        << (h.avx2 ? "true" : "false")
        << ", \"avx512f\": " << (h.avx512f ? "true" : "false")
        << ", \"avx512ifma\": " << (h.avx512ifma ? "true" : "false")
        << ", \"vcpus\": " << h.vcpus << ", \"l1d_kb\": " << h.l1d_kb
        << ", \"l2_kb\": " << h.l2_kb << ", \"l3_kb\": " << h.l3_kb
        << ", \"compiler\": \"" << h.compiler << "\", \"build_type\": \""
        << h.build_type << "\", \"BTS_TELEMETRY\": \"" << h.telemetry
        << "\", \"BTS_USE_AVX2\": \"" << h.avx2_build
        << "\", \"commit\": \"" << h.commit
        << "\", \"ref_ntt_us_start\": " << d.ref_start_us
        << ", \"ref_ntt_us_end\": " << d.ref_end_us
        << ", \"steal_pct\": " << d.steal_pct
        << ", \"round_drift\": " << d.round_drift
        << ", \"windows\": " << d.windows << "}";
}

} // namespace e2e
