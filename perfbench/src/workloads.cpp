#include "workloads.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "scenario/presets.hpp"
#include "scenario/spec_io.hpp"
#include "scenario/wan_path.hpp"

namespace perfbench {

namespace {

using rss::net::DataRate;
using rss::scenario::ExecutionPolicy;
using rss::scenario::TopologySpec;
using rss::scenario::spec::JsonValue;
using rss::scenario::spec::ScenarioSpec;
using rss::sim::Time;

/// Every workload but mesh_10k runs on one thread whatever the host's core
/// count, so the figures do not depend on how many cores the host has.
ExecutionPolicy sequential() {
  ExecutionPolicy policy;
  policy.threads = 1;
  return policy;
}

ScenarioSpec wrap(std::string name, TopologySpec topology, Time duration) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.flow_cc.assign(topology.flows.size(), "reno");
  spec.topology = std::move(topology);
  spec.run.duration = duration;
  return spec;
}

/// The paper's testbed: 100 Mbps sender NIC with a 100-packet IFQ, 30 ms
/// one way, 1 Gbps receiver, one Web100-polled bulk flow, swept over the
/// congestion-control variants behind Fig. 1 and Table 1.
ScenarioSpec paper_path(std::uint64_t seed) {
  rss::scenario::WanPath::Config cfg;
  cfg.seed = seed;
  TopologySpec topology = rss::scenario::WanPath::make_spec(cfg);
  topology.backend.reset();  // the default (auto) backend, as a spec author gets it
  topology.execution = sequential();
  ScenarioSpec spec = wrap("paper_path", std::move(topology), Time::seconds(60));
  rss::scenario::spec::SweepAxis axis;
  axis.field = "flows[0].cc";
  for (const char* cc :
       {"reno", "restricted-slow-start", "limited-slow-start", "highspeed", "cubic"}) {
    axis.values.push_back(JsonValue::make_string(cc));
  }
  spec.sweep.axes.push_back(std::move(axis));
  return spec;
}

/// The bench's scale_mesh shape, sequential with the auto backend:
/// 4 dumbbell segments x (25 local + 5 cross-trunk) Reno flows.
ScenarioSpec mesh_dense(std::uint64_t seed) {
  rss::scenario::ScaleMesh::Config cfg;
  cfg.segments = 4;
  cfg.flows_per_segment = 25;
  cfg.cross_flows_per_segment = 5;
  cfg.seed = seed;
  cfg.execution = sequential();
  return wrap("mesh_dense", rss::scenario::ScaleMesh::make_spec(cfg), Time::seconds(1));
}

/// 3-hop parking lot, 100 Mbps access links, RED on every hop bottleneck;
/// per hop 7 packet Reno cross flows plus one fluid aggregate capped at
/// 20 Mbps.
ScenarioSpec lot_red(std::uint64_t seed) {
  constexpr std::size_t kHops = 3;
  constexpr std::size_t kCrossPerHop = 8;
  rss::scenario::ParkingLot::Config cfg;
  cfg.hops = kHops;
  cfg.cross_flows_per_hop = kCrossPerHop;
  cfg.access_rate = DataRate::mbps(100);
  cfg.seed = seed;
  cfg.execution = sequential();
  TopologySpec topology = rss::scenario::ParkingLot::make_spec(cfg);
  for (auto& link : topology.links) {
    if (link.a_dev.name.rfind("hop", 0) == 0) {
      link.a_dev.qdisc = rss::scenario::QueueDiscipline::kRed;
    }
  }
  // Flow 0 is the end-to-end flow; cross flows follow hop-major. The last
  // cross flow of each hop becomes the fluid aggregate.
  for (std::size_t hop = 0; hop < kHops; ++hop) {
    auto& flow = topology.flows[1 + hop * kCrossPerHop + kCrossPerHop - 1];
    rss::scenario::FlowSpec fluid;
    fluid.src = flow.src;
    fluid.dst = flow.dst;
    fluid.flow_id = flow.flow_id;
    fluid.start = flow.start;
    fluid.model = rss::scenario::TrafficModel::kFluid;
    fluid.fluid.peak_rate = DataRate::mbps(20);
    flow = std::move(fluid);
  }
  return wrap("lot_red", std::move(topology), Time::seconds(20));
}

/// ScaleMesh at 8 segments x 1250 local flows + 5 cross flows per trunk
/// (10,035 flows, all starting at t=0), run over start-up at 2 partitions
/// on 2 threads with the default backend.
ScenarioSpec mesh_10k(std::uint64_t seed) {
  rss::scenario::ScaleMesh::Config cfg;
  cfg.segments = 8;
  cfg.flows_per_segment = 1250;
  cfg.cross_flows_per_segment = 5;
  cfg.seed = seed;
  cfg.execution.partitions = 2;
  cfg.execution.threads = 2;
  return wrap("mesh_10k", rss::scenario::ScaleMesh::make_spec(cfg),
              Time::milliseconds(200));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_path", "mesh_dense", "lot_red",
                                              "mesh_10k"};
  return names;
}

std::string workload_spec_text(std::string_view workload, std::uint64_t seed) {
  ScenarioSpec spec;
  if (workload == "paper_path") {
    spec = paper_path(seed);
  } else if (workload == "mesh_dense") {
    spec = mesh_dense(seed);
  } else if (workload == "lot_red") {
    spec = lot_red(seed);
  } else if (workload == "mesh_10k") {
    spec = mesh_10k(seed);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string{workload} + "'");
  }
  return rss::scenario::spec::serialize_scenario_spec(spec);
}

}  // namespace perfbench
