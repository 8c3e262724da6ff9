#include "math/ifma.h"

namespace bts {

bool
cpu_has_ifma()
{
#if BTS_IFMA_COMPILED
    // Function-local, so the probe runs on first use rather than during
    // static initialization, and __builtin_cpu_init() comes first: read
    // before libgcc's own constructor has run, __builtin_cpu_supports
    // reports false.
    static const bool has = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512ifma") != 0;
    }();
    return has;
#else
    return false;
#endif
}

KernelIsa
dispatch_isa(u64 max_modulus)
{
    return cpu_has_ifma() && (max_modulus >> kIfmaMaxModulusBits) == 0
               ? KernelIsa::kIfma52
               : KernelIsa::kScalar;
}

const char*
kernel_isa()
{
    return cpu_has_ifma() ? "avx512ifma" : "scalar";
}

} // namespace bts
