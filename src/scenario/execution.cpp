#include "scenario/execution.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <thread>

namespace rss::scenario {

namespace {

std::size_t process_thread_budget = 0;  ///< --jobs; 0 = unset

}  // namespace

std::size_t ExecutionPolicy::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ExecutionPolicy::resolve_threads(std::size_t work_items) const {
  return std::clamp<std::size_t>(thread_budget(threads), 1,
                                 std::max<std::size_t>(work_items, 1));
}

std::size_t thread_budget(std::size_t requested) {
  if (requested != 0) return requested;
  if (process_thread_budget != 0) return process_thread_budget;
  return ExecutionPolicy::hardware_threads();
}

JobsFlag parse_jobs_flag(int argc, char** argv, int& i) {
  if (std::string_view{argv[i]} != "--jobs") return JobsFlag::kNotMine;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "--jobs needs a count argument\n");
    return JobsFlag::kError;
  }
  // strtoull alone would take "-1" (as 2^64 - 1), " 3" and "+3".
  char* end = nullptr;
  const unsigned long long jobs = std::strtoull(argv[++i], &end, 10);
  if (std::isdigit(static_cast<unsigned char>(argv[i][0])) == 0 || *end != '\0') {
    std::fprintf(stderr, "--jobs: '%s' is not a count\n", argv[i]);
    return JobsFlag::kError;
  }
  process_thread_budget = static_cast<std::size_t>(jobs);
  return JobsFlag::kConsumed;
}

}  // namespace rss::scenario
