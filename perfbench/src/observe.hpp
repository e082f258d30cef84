#pragma once

#include <cstdint>
#include <set>
#include <string_view>

#include "scenario/builder.hpp"

namespace perfbench {

/// Per-layer work counts read from a finished scenario through the public
/// accessors. Summed over a workload's sweep points, except
/// `partitions` and `arena_slots`, which take the largest point.
struct Counters {
  // builder
  std::uint64_t flows{0};
  std::uint64_t partitions{0};
  std::uint64_t calendar_partitions{0};  ///< partitions whose scheduler runs the calendar queue
  // sim
  std::uint64_t events{0};
  std::uint64_t arena_slots{0};
  std::uint64_t windows{0};
  std::uint64_t handoffs{0};
  std::uint64_t engine_workers{0};  ///< threads driving partitions (0 = unpartitioned)
  // net
  std::uint64_t forwarded{0};
  std::uint64_t forward_drops{0};
  std::uint64_t queue_drops{0};
  std::uint64_t ce_marked{0};
  std::uint64_t tx_packets{0};
  std::uint64_t send_stalls{0};  ///< IFQ rejections at flow-endpoint hosts
  double fluid_offered_bytes{0};
  double fluid_shed_bytes{0};
  // tcp / web100
  std::uint64_t bytes_acked{0};
  std::uint64_t pkts_out{0};
  std::uint64_t data_bytes_out{0};
  std::uint64_t retransmits{0};
  std::uint64_t timeouts{0};
  std::uint64_t web100_polls{0};

  void add(const Counters& other);
};

/// Nodes that are the source or destination of a packet (TCP) flow; every
/// other node only forwards.
[[nodiscard]] std::set<std::string_view> packet_endpoints(
    const rss::scenario::TopologySpec& spec);

/// Counters of `scenario` after its run.
[[nodiscard]] Counters observe(rss::scenario::Scenario& scenario);

/// Digest of what the run simulated: the exact event count, per-flow acked
/// bytes, send stalls and retransmits (delivered bytes for a fluid flow),
/// and per-device queue drops and CE marks. Tracing or a different queue
/// backend must not change it.
[[nodiscard]] std::uint64_t fingerprint(rss::scenario::Scenario& scenario);

/// FNV-1a over 64-bit words; also used to chain per-point fingerprints.
class Fnv64 {
 public:
  void add(std::uint64_t word);
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ull};
};

}  // namespace perfbench
