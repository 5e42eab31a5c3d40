#include "util/env.hpp"

#include <cerrno>
#include <cstdlib>

namespace gt {

double env_double(const char* name, double fallback) {
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0') {
        return fallback;
    }
    char* end = nullptr;
    const double value = std::strtod(raw, &end);
    return end != raw ? value : fallback;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* raw = std::getenv(name);
    // A leading digit rules out the sign, blanks and empty values strtoull
    // would otherwise accept ("-5" reads as 2^64 - 5).
    if (raw == nullptr || *raw < '0' || *raw > '9') {
        return fallback;
    }
    errno = 0;
    char* end = nullptr;
    const std::uint64_t value = std::strtoull(raw, &end, 10);
    return *end == '\0' && errno == 0 && value > 0 ? value : fallback;
}

double bench_scale() { return env_double("GT_SCALE", 1.0 / 64.0); }

}  // namespace gt
