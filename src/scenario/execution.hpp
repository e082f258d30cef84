#pragma once

#include <cstddef>

#include <optional>

#include "sim/scheduler.hpp"

namespace rss::scenario {

/// How one scenario executes: queue backend, partition count and thread
/// budget. This is the spec's "execution" block and the only place a
/// scenario's execution is chosen; TopologySpec::backend (the spec file's
/// top-level "backend") remains as a deprecated alias that forwards here.
///
/// Defaults: one partition, the binary-heap backend, hardware thread budget.
struct ExecutionPolicy {
  /// Event-queue backend for every partition's scheduler; unset ("auto")
  /// means the binary heap. Pop order is backend-independent, so this is a
  /// pure speed knob.
  std::optional<sim::QueueBackend> backend{};
  /// Number of topology partitions to run in parallel; 1 = the classic
  /// single-scheduler run. Requests beyond the node count are clamped.
  std::size_t partitions{1};
  /// Worker-thread budget: for a partitioned run, threads driving
  /// partitions; for parallel_sweep, concurrent sweep points. 0 = the
  /// process thread budget (see thread_budget()).
  std::size_t threads{0};

  friend bool operator==(const ExecutionPolicy&, const ExecutionPolicy&) = default;

  [[nodiscard]] bool partitioned() const { return partitions > 1; }
  [[nodiscard]] bool is_default() const { return *this == ExecutionPolicy{}; }

  /// Backend every partition's scheduler runs.
  [[nodiscard]] sim::QueueBackend resolve_backend() const {
    return backend.value_or(sim::QueueBackend::kBinaryHeap);
  }

  /// std::thread::hardware_concurrency(), with the standard-permitted
  /// 0 = "unknown" report mapped to 1.
  [[nodiscard]] static std::size_t hardware_threads();

  /// Worker count for `work_items` independent work items under this
  /// policy's thread budget: min(thread_budget(threads), work_items),
  /// never 0.
  [[nodiscard]] std::size_t resolve_threads(std::size_t work_items) const;
};

/// `requested` when nonzero, else the process thread budget when set, else
/// ExecutionPolicy::hardware_threads(). The process thread budget is the
/// one process-wide execution setting: the total that sweep workers and
/// partition engines share, so nested parallelism never oversubscribes.
[[nodiscard]] std::size_t thread_budget(std::size_t requested = 0);

/// The execution flag rss_scenario and rss_artifacts share:
/// `--jobs <n>` sets the process thread budget (0 = one per hardware
/// thread). Not synchronized: parse it before any worker is spawned.
enum class JobsFlag {
  kConsumed,  ///< argv[i] was --jobs; its count was consumed and installed
  kNotMine,   ///< not --jobs; the caller keeps parsing
  kError,     ///< --jobs without a valid count; a diagnostic went to stderr
};

/// Try to consume argv[i] as --jobs, advancing `i` past its count.
[[nodiscard]] JobsFlag parse_jobs_flag(int argc, char** argv, int& i);

/// The --jobs help line (indented, newline-terminated) for usage() texts.
inline constexpr const char* kJobsFlagHelp =
    "  --jobs <n>               total thread budget shared by sweep points and\n"
    "                           partition engines (default: all cores)\n";

}  // namespace rss::scenario
