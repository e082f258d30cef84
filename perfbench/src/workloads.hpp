#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Names of the benchmark's workloads, in the order the docs list them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The scenario spec text of `workload` for `seed`: the JSON document a
/// user would hand to rss_scenario. The seed lands in the spec's `seed`
/// field and nowhere else, so the same seed always yields the same text.
/// Throws std::invalid_argument on an unknown workload name.
[[nodiscard]] std::string workload_spec_text(std::string_view workload, std::uint64_t seed);

}  // namespace perfbench
