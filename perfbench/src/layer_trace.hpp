#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/builder.hpp"

namespace perfbench {

/// Receive-callback time summed over one layer.
struct LayerTime {
  std::uint64_t calls{0};
  double seconds{0};
};

/// Observation-only layer timing from outside the library: every
/// NetDevice's receive callback is wrapped (the same chaining
/// net::PacketTracer uses) in a span timed with steady_clock.
///
/// - At a router node the span covers Node forwarding -> egress
///   NetDevice::send -> queue enqueue (the `net` layer).
/// - At a flow-endpoint node it covers demux -> TcpSender/TcpReceiver and
///   congestion control -> the new sends they make (the `tcp` layer).
///
/// Scheduler pushes made inside a span count toward it. Everything else the
/// run does (scheduler pops, serialization completions, link delivery, TCP
/// timers, fluid ticks, Web100 polls, partition barriers) is outside every
/// span.
///
/// Spans accumulate per node, and each node runs on exactly one partition
/// thread, so no accumulator is shared between threads; read them only
/// after Scenario::run_until returns. A span that re-enters another has its
/// time subtracted from the outer one.
///
/// The wrapped callbacks point into this object: do not run the scenario
/// after the tracer is destroyed.
class LayerTracer {
 public:
  explicit LayerTracer(rss::scenario::Scenario& scenario);

  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  /// One node's totals, in spec node order.
  struct NodeTotal {
    std::string name;
    bool router{false};
    LayerTime time;
  };
  [[nodiscard]] std::vector<NodeTotal> node_totals() const;

  [[nodiscard]] LayerTime forward() const { return sum(true); }
  [[nodiscard]] LayerTime endpoint() const { return sum(false); }

 private:
  /// Cache-line sized so partition threads never write to one line.
  struct alignas(64) Accumulator {
    std::uint64_t calls{0};
    std::int64_t self_ns{0};
  };

  [[nodiscard]] LayerTime sum(bool router) const;

  std::vector<std::string> names_;
  std::vector<bool> router_;
  std::unique_ptr<Accumulator[]> acc_;
};

}  // namespace perfbench
