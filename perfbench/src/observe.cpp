#include "observe.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string_view>
#include <vector>

#include "net/device.hpp"
#include "net/node.hpp"
#include "sim/partition.hpp"
#include "web100/mib.hpp"

namespace perfbench {

std::set<std::string_view> packet_endpoints(const rss::scenario::TopologySpec& spec) {
  std::set<std::string_view> out;
  for (const auto& flow : spec.flows) {
    if (flow.model != rss::scenario::TrafficModel::kPacket) continue;
    out.insert(flow.src);
    out.insert(flow.dst);
  }
  return out;
}

void Fnv64::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (word >> (8 * i)) & 0xffu;
    hash_ *= 0x100000001b3ull;
  }
}

void Counters::add(const Counters& o) {
  flows += o.flows;
  partitions = std::max(partitions, o.partitions);
  calendar_partitions += o.calendar_partitions;
  events += o.events;
  arena_slots = std::max(arena_slots, o.arena_slots);
  windows += o.windows;
  handoffs += o.handoffs;
  engine_workers = std::max(engine_workers, o.engine_workers);
  forwarded += o.forwarded;
  forward_drops += o.forward_drops;
  queue_drops += o.queue_drops;
  ce_marked += o.ce_marked;
  tx_packets += o.tx_packets;
  send_stalls += o.send_stalls;
  fluid_offered_bytes += o.fluid_offered_bytes;
  fluid_shed_bytes += o.fluid_shed_bytes;
  bytes_acked += o.bytes_acked;
  pkts_out += o.pkts_out;
  data_bytes_out += o.data_bytes_out;
  retransmits += o.retransmits;
  timeouts += o.timeouts;
  web100_polls += o.web100_polls;
}

Counters observe(rss::scenario::Scenario& scenario) {
  Counters c;
  const auto& spec = scenario.spec();
  const auto endpoints = packet_endpoints(spec);
  std::vector<const rss::sim::Simulation*> sims;
  for (const auto& name : spec.nodes) {
    rss::net::Node& node = scenario.node(name);
    c.forwarded += node.forwarded_packets();
    c.forward_drops += node.forward_drops();
    const bool endpoint = endpoints.count(name) != 0;
    for (std::size_t d = 0; d < node.device_count(); ++d) {
      const rss::net::NetDevice& dev = node.device(d);
      if (std::find(sims.begin(), sims.end(), &dev.simulation()) == sims.end()) {
        sims.push_back(&dev.simulation());
      }
      c.queue_drops += dev.ifq().stats().dropped;
      c.ce_marked += dev.ifq().stats().ce_marked;
      c.tx_packets += dev.stats().tx_packets;
      if (endpoint) c.send_stalls += dev.stats().send_stalls;
    }
  }
  c.partitions = scenario.partition_count();
  for (const auto* sim : sims) {
    c.arena_slots += sim->scheduler().arena_slots();
    if (sim->scheduler().backend() == rss::sim::QueueBackend::kCalendarQueue) {
      ++c.calendar_partitions;
    }
  }
  c.events = scenario.events_executed();
  if (const auto* engine = scenario.engine()) {
    c.windows = engine->windows_executed();
    c.handoffs = engine->handoffs_delivered();
    // The engine's own worker-count rule: its thread budget (0 = one per
    // hardware thread) clamped to the partition count.
    std::size_t budget = engine->options().threads;
    if (budget == 0) budget = rss::scenario::ExecutionPolicy::hardware_threads();
    c.engine_workers = std::min(budget, engine->partition_count());
  }
  c.flows = scenario.flow_count();
  for (std::size_t i = 0; i < scenario.flow_count(); ++i) {
    if (scenario.is_fluid(i)) {
      c.fluid_offered_bytes += scenario.fluid_source(i).offered_bytes();
      c.fluid_shed_bytes += scenario.fluid_source(i).dropped_bytes();
      continue;
    }
    const rss::web100::Mib& mib = scenario.sender(i).mib();
    c.bytes_acked += scenario.sender(i).bytes_acked();
    c.pkts_out += mib.PktsOut;
    c.data_bytes_out += mib.DataBytesOut;
    c.retransmits += mib.PktsRetrans;
    c.timeouts += mib.Timeouts;
    if (const auto* agent = scenario.agent(i)) c.web100_polls += agent->polls_taken();
  }
  return c;
}

std::uint64_t fingerprint(rss::scenario::Scenario& scenario) {
  Fnv64 h;
  h.add(scenario.events_executed());
  for (std::size_t i = 0; i < scenario.flow_count(); ++i) {
    if (scenario.is_fluid(i)) {
      h.add(static_cast<std::uint64_t>(std::llround(scenario.fluid_sink(i).delivered_bytes())));
      continue;
    }
    const rss::web100::Mib& mib = scenario.sender(i).mib();
    h.add(scenario.sender(i).bytes_acked());
    h.add(mib.SendStall);
    h.add(mib.PktsRetrans);
  }
  for (const auto& name : scenario.spec().nodes) {
    rss::net::Node& node = scenario.node(name);
    for (std::size_t d = 0; d < node.device_count(); ++d) {
      h.add(node.device(d).ifq().stats().dropped);
      h.add(node.device(d).ifq().stats().ce_marked);
    }
  }
  return h.value();
}

}  // namespace perfbench
