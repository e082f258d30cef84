// Every-field wiring check for the spec format. A ScenarioSpec is built in
// C++ with every field the format knows set to a distinct non-default
// value, then:
//   - serializing it must equal the checked-in canonical fixture byte for
//     byte, which catches a JSON name wired to the wrong member;
//   - serialize(parse(fixture)) must equal the fixture, which catches a
//     field the reader and the writer treat differently.

#include <gtest/gtest.h>

#include <string>

#include "scenario/spec_io.hpp"
#include "scenario/topology.hpp"

namespace rss::scenario::spec {
namespace {

using namespace rss::sim::literals;

const std::string kFixture = std::string{RSS_TEST_FIXTURES_DIR} + "/every_field_spec.json";

ScenarioSpec every_field_spec() {
  ScenarioSpec s;
  s.name = "every-field";
  TopologySpec& t = s.topology;
  t.seed = 4242;
  t.backend = sim::QueueBackend::kCalendarQueue;
  t.execution.backend = sim::QueueBackend::kBinaryHeap;
  t.execution.partitions = 3;
  t.execution.threads = 5;
  t.nodes = {"h1", "r1", "h2"};

  LinkSpec access;
  access.a = "h1";
  access.b = "r1";
  access.delay = 7_ms;
  access.a_dev.rate = net::DataRate::mbps(55);
  access.a_dev.ifq_packets = 11;
  access.a_dev.qdisc = QueueDiscipline::kRed;
  access.a_dev.red.min_threshold = 3.5;
  access.a_dev.red.max_threshold = 21.5;
  access.a_dev.red.max_drop_probability = 0.25;
  access.a_dev.red.queue_weight = 0.004;
  access.a_dev.ecn_threshold = 9;
  access.a_dev.name = "h1-nic";
  access.b_dev.rate = net::DataRate::mbps(66);
  access.b_dev.ifq_packets = 12;
  access.b_dev.qdisc = QueueDiscipline::kCodel;
  access.b_dev.codel.target = 3_ms;
  access.b_dev.codel.interval = 80_ms;
  access.b_dev.ecn_threshold = 13;
  access.b_dev.name = "r1-port";
  t.links.push_back(access);
  t.links.push_back({.a = "r1", .b = "h2", .delay = 9_ms});

  FlowSpec packet;
  packet.src = "h1";
  packet.dst = "h2";
  packet.flow_id = 17;
  packet.start = 250_ms;
  packet.ecn = true;
  packet.sender.mss = 1200;
  packet.sender.initial_seq = 1001;
  packet.sender.rwnd_limit_bytes = 65536;
  packet.sender.stall_retry_delay = 15_ms;
  packet.sender.enable_sack = true;
  packet.sender.cwnd_validation = true;
  packet.sender.trace_cwnd = true;
  packet.sender.trace_stalls = true;
  packet.sender.rtt.initial_rto = 1500_ms;
  packet.sender.rtt.min_rto = 120_ms;
  packet.sender.rtt.max_rto = 45_s;
  packet.sender.rtt.alpha = 0.2;
  packet.sender.rtt.beta = 0.3;
  packet.sender.rtt.k = 6;
  packet.receiver.initial_seq = 2002;
  packet.receiver.advertised_window = 131072;
  packet.receiver.ack_every = 3;
  packet.receiver.delayed_ack_timeout = 40_ms;
  packet.receiver.enable_sack = true;
  packet.receiver.quickack_segments = 8;
  packet.web100 = true;
  packet.web100_poll_period = 25_ms;
  t.flows.push_back(packet);

  FlowSpec fluid;
  fluid.src = "h2";
  fluid.dst = "h1";
  fluid.flow_id = 18;
  fluid.start = 750_ms;
  fluid.model = TrafficModel::kFluid;
  fluid.fluid.initial_rate = net::DataRate::mbps(4);
  fluid.fluid.peak_rate = net::DataRate::mbps(30);
  fluid.fluid.stride = 2_ms;
  fluid.fluid.packet_bytes = 1000;
  fluid.fluid.rtt = 90_ms;
  fluid.fluid.decrease = 0.7;
  t.flows.push_back(fluid);
  // A fluid flow has no congestion control; the parser fills in "reno".
  s.flow_cc = {"cubic", "reno"};

  s.run.duration = 12_s;
  s.run.measure_start = 3_s;

  s.sweep.mode = SweepSpec::Mode::kZip;
  s.sweep.axes.push_back(
      {.field = "seed", .values = {JsonValue::make_number(std::uint64_t{1}),
                                   JsonValue::make_number(std::uint64_t{2})}});
  s.sweep.axes.push_back({.field = "links[0].delay",
                          .values = {JsonValue::make_string("5ms"),
                                     JsonValue::make_string("6ms")}});
  return s;
}

TEST(SpecEveryFieldTest, SerializedFormMatchesTheCanonicalFixture) {
  EXPECT_EQ(serialize_scenario_spec(every_field_spec()), read_spec_file(kFixture));
}

TEST(SpecEveryFieldTest, FixtureRoundTripsByteForByte) {
  const std::string fixture = read_spec_file(kFixture);
  EXPECT_EQ(serialize_scenario_spec(parse_scenario_spec(fixture)), fixture);
}

}  // namespace
}  // namespace rss::scenario::spec
