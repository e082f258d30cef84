#include "layer_trace.hpp"

#include <chrono>
#include <utility>

#include "net/device.hpp"
#include "net/node.hpp"
#include "observe.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// The innermost open span on this thread, so a re-entered span can be
/// subtracted from the one it interrupted.
struct Frame {
  std::int64_t child_ns{0};
  Frame* parent{nullptr};
};
thread_local Frame* t_open = nullptr;

template <typename Acc>
class SpanScope {
 public:
  explicit SpanScope(Acc& acc) : acc_{acc} {
    frame_.parent = t_open;
    t_open = &frame_;
    start_ = Clock::now();
  }
  ~SpanScope() {
    const std::int64_t total =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count();
    acc_.self_ns += total - frame_.child_ns;
    ++acc_.calls;
    t_open = frame_.parent;
    if (t_open != nullptr) t_open->child_ns += total;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Acc& acc_;
  Frame frame_;
  Clock::time_point start_;
};

}  // namespace

LayerTracer::LayerTracer(rss::scenario::Scenario& scenario) {
  const auto endpoints = packet_endpoints(scenario.spec());
  names_ = scenario.spec().nodes;
  acc_ = std::make_unique<Accumulator[]>(names_.size());
  for (std::size_t n = 0; n < names_.size(); ++n) {
    router_.push_back(endpoints.count(names_[n]) == 0);
    Accumulator* acc = &acc_[n];
    rss::net::Node& node = scenario.node(names_[n]);
    for (std::size_t d = 0; d < node.device_count(); ++d) {
      rss::net::NetDevice& device = node.device(d);
      auto prev = device.receive_callback();
      if (!prev) continue;
      device.set_receive_callback(
          [acc, prev = std::move(prev)](const rss::net::Packet& p, rss::net::NetDevice& dev) {
            SpanScope<Accumulator> span{*acc};
            prev(p, dev);
          });
    }
  }
}

std::vector<LayerTracer::NodeTotal> LayerTracer::node_totals() const {
  std::vector<NodeTotal> out;
  for (std::size_t n = 0; n < names_.size(); ++n) {
    out.push_back({names_[n], router_[n],
                   {acc_[n].calls, static_cast<double>(acc_[n].self_ns) * 1e-9}});
  }
  return out;
}

LayerTime LayerTracer::sum(bool router) const {
  LayerTime total;
  std::int64_t ns = 0;
  for (std::size_t n = 0; n < names_.size(); ++n) {
    if (router_[n] != router) continue;
    total.calls += acc_[n].calls;
    ns += acc_[n].self_ns;
  }
  total.seconds = static_cast<double>(ns) * 1e-9;
  return total;
}

}  // namespace perfbench
