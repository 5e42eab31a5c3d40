// Environment-variable configuration knobs shared by the bench harness.
#pragma once

#include <cstdint>
#include <string>

namespace gt {

/// Reads an environment variable as double, returning `fallback` when unset
/// or unparsable.
[[nodiscard]] double env_double(const char* name, double fallback);

/// Reads an environment variable as a positive u64, returning `fallback`
/// unless the whole value is a positive decimal (so unset, 0, negative,
/// trailing garbage and out-of-range values all fall back).
[[nodiscard]] std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Global benchmark scale factor (GT_SCALE). Benches multiply paper edge
/// counts by this; default 1/64 keeps the full suite laptop-friendly.
[[nodiscard]] double bench_scale();

}  // namespace gt
