#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "scenario/spec_io.hpp"
#include "scenario/topology.hpp"

namespace rss::scenario::spec {
namespace {

using namespace rss::sim::literals;
using Code = SpecError::Code;

/// The thrown SpecError's code, or nullopt when `fn` doesn't throw it.
template <typename Fn>
std::optional<Code> spec_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const SpecError& e) {
    return e.code();
  }
  return std::nullopt;
}

/// The SpecError itself, for asserting on field/line context.
template <typename Fn>
std::optional<SpecError> spec_error_full(Fn&& fn) {
  try {
    fn();
  } catch (const SpecError& e) {
    return e;
  }
  return std::nullopt;
}

// --- JSON layer -----------------------------------------------------------

TEST(JsonParseTest, ParsesScalarsArraysAndObjects) {
  const JsonValue v = json_parse(R"({"a": 1, "b": [true, "x", null], "c": {"d": -2.5}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_u64("a"), 1u);
  ASSERT_TRUE(v.find("b")->is_array());
  EXPECT_EQ(v.find("b")->array.size(), 3u);
  EXPECT_TRUE(v.find("b")->array[0].as_bool("b[0]"));
  EXPECT_EQ(v.find("b")->array[1].as_string("b[1]"), "x");
  EXPECT_DOUBLE_EQ(v.find("c")->find("d")->as_double("c.d"), -2.5);
}

TEST(JsonParseTest, DecodesStringEscapes) {
  const JsonValue v = json_parse(R"(["a\"b", "tab\there", "A"])");
  EXPECT_EQ(v.array[0].as_string(""), "a\"b");
  EXPECT_EQ(v.array[1].as_string(""), "tab\there");
  EXPECT_EQ(v.array[2].as_string(""), "A");
}

TEST(JsonParseTest, MalformedDocumentsReportSyntaxErrorsWithLines) {
  const auto err = spec_error_full([] { (void)json_parse("{\n  \"a\": 1,\n  oops\n}"); });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kSyntax);
  EXPECT_EQ(err->line(), 3);

  EXPECT_EQ(spec_error_of([] { (void)json_parse(""); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("{\"a\": }"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("[1, 2"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("\"unterminated"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("{} trailing"); }), Code::kSyntax);
  EXPECT_EQ(spec_error_of([] { (void)json_parse("01"); }), Code::kSyntax);
}

TEST(JsonParseTest, RejectsDuplicateObjectKeys) {
  EXPECT_EQ(spec_error_of([] { (void)json_parse(R"({"a": 1, "a": 2})"); }), Code::kSyntax);
}

TEST(JsonParseTest, NumbersKeepTheirLiteralText) {
  // 2^63 + 1 is not representable as a double; the literal must survive.
  const JsonValue v = json_parse(R"({"seed": 9223372036854775809})");
  EXPECT_EQ(v.find("seed")->as_u64("seed"), 9223372036854775809ull);
  EXPECT_EQ(json_serialize(*v.find("seed")), "9223372036854775809\n");
}

TEST(JsonSerializeTest, RoundTripsStably) {
  const std::string text =
      R"({"name": "x", "nodes": ["a", "b"], "deep": {"k": [1, 2.5, true, null]}})";
  const std::string once = json_serialize(json_parse(text));
  const std::string twice = json_serialize(json_parse(once));
  EXPECT_EQ(once, twice);
}

// --- unit-tagged scalars --------------------------------------------------

TEST(UnitParseTest, ParsesTimes) {
  EXPECT_EQ(parse_time("250ns", "f"), 250_ns);
  EXPECT_EQ(parse_time("10us", "f"), 10_us);
  EXPECT_EQ(parse_time("30ms", "f"), 30_ms);
  EXPECT_EQ(parse_time("2s", "f"), 2_s);
  EXPECT_EQ(parse_time("1.5s", "f"), 1500_ms);
  EXPECT_EQ(parse_time("0s", "f"), sim::Time::zero());
}

TEST(UnitParseTest, FormatsTimesInLargestExactUnit) {
  EXPECT_EQ(format_time(30_ms), "30ms");
  EXPECT_EQ(format_time(1500_ms), "1500ms");
  EXPECT_EQ(format_time(2_s), "2s");
  EXPECT_EQ(format_time(1234_ns), "1234ns");
  EXPECT_EQ(format_time(sim::Time::zero()), "0s");
  // Round trip: parse(format(t)) == t.
  for (const sim::Time t : {1_ns, 999_us, 100_ms, 60_s}) {
    EXPECT_EQ(parse_time(format_time(t), "f"), t);
  }
}

TEST(UnitParseTest, ParsesRates) {
  EXPECT_EQ(parse_rate("9600bps", "f"), net::DataRate::bps(9600));
  EXPECT_EQ(parse_rate("56kbps", "f"), net::DataRate::kbps(56));
  EXPECT_EQ(parse_rate("100mbps", "f"), net::DataRate::mbps(100));
  EXPECT_EQ(parse_rate("1gbps", "f"), net::DataRate::gbps(1));
  EXPECT_EQ(parse_rate("2.5gbps", "f"), net::DataRate::mbps(2500));
  EXPECT_EQ(format_rate(net::DataRate::mbps(100)), "100mbps");
  EXPECT_EQ(format_rate(net::DataRate::bps(2500)), "2500bps");
}

TEST(UnitParseTest, BadUnitsAreTypedErrorsWithFieldContext) {
  const auto err = spec_error_full([] { (void)parse_time("30m", "links[0].delay"); });
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code(), Code::kBadValue);
  EXPECT_EQ(err->field(), "links[0].delay");
  EXPECT_NE(std::string{err->what()}.find("links[0].delay"), std::string::npos);

  EXPECT_EQ(spec_error_of([] { (void)parse_time("30", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("fast", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("-5ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("100mps", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("100", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("0bps", "f"); }), Code::kBadValue);
}

TEST(UnitParseTest, NumericPartIsStrict) {
  // strtod alone would accept all of these; the unit grammar must not.
  EXPECT_EQ(spec_error_of([] { (void)parse_time(" 30ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("+30ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("0x10ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("1e3ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time("1.ms", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_time(".5s", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("0x1egbps", "f"); }), Code::kBadValue);
  EXPECT_EQ(spec_error_of([] { (void)parse_rate("1e2mbps", "f"); }), Code::kBadValue);
}

// --- scenario schema ------------------------------------------------------

constexpr const char* kMinimalSpec = R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "delay": "10ms"}],
  "flows": [{"src": "a", "dst": "b"}]
})";

TEST(ScenarioSpecTest, ParsesMinimalSpecWithDefaults) {
  const ScenarioSpec s = parse_scenario_spec(kMinimalSpec);
  EXPECT_EQ(s.name, "scenario");
  EXPECT_EQ(s.topology.seed, 1u);
  EXPECT_FALSE(s.topology.backend.has_value());
  ASSERT_EQ(s.topology.nodes.size(), 2u);
  ASSERT_EQ(s.topology.links.size(), 1u);
  EXPECT_EQ(s.topology.links[0].delay, 10_ms);
  EXPECT_EQ(s.topology.links[0].a_dev.rate, net::DataRate::gbps(1));
  ASSERT_EQ(s.topology.flows.size(), 1u);
  ASSERT_EQ(s.flow_cc.size(), 1u);
  EXPECT_EQ(s.flow_cc[0], "reno");
  EXPECT_EQ(s.run.duration, 30_s);
  EXPECT_TRUE(s.sweep.empty());
}

TEST(ScenarioSpecTest, UnknownKeysAreRejectedAtEveryLevel) {
  const auto top = spec_error_full(
      [] { (void)parse_scenario_spec(R"({"nodes": ["a"], "nodez": 1})"); });
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->code(), Code::kUnknownField);
  EXPECT_EQ(top->field(), "nodez");

  const auto nested = spec_error_full([] {
    (void)parse_scenario_spec(R"({
      "nodes": ["a", "b"],
      "links": [{"a": "a", "b": "b", "a_dev": {"ifq_pakcets": 10}}]
    })");
  });
  ASSERT_TRUE(nested.has_value());
  EXPECT_EQ(nested->code(), Code::kUnknownField);
  EXPECT_EQ(nested->field(), "links[0].a_dev.ifq_pakcets");
  EXPECT_GT(nested->line(), 1);
}

TEST(ScenarioSpecTest, MissingRequiredFieldsAreTyped) {
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"({"seed": 1})"); }),
            Code::kMissingField);
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({"nodes": ["a", "b"], "links": [{"a": "a"}]})");
            }),
            Code::kMissingField);
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({"nodes": ["a", "b"], "flows": [{"src": "a"}]})");
            }),
            Code::kMissingField);
}

TEST(ScenarioSpecTest, WrongTypesAreTyped) {
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"({"nodes": "a"})"); }),
            Code::kWrongType);
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"({"nodes": ["a"], "seed": "x"})"); }),
            Code::kWrongType);
  EXPECT_EQ(spec_error_of([] { (void)parse_scenario_spec(R"([1, 2, 3])"); }), Code::kWrongType);
}

TEST(ScenarioSpecTest, BadEnumValuesAreTyped) {
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({"nodes": ["a"], "backend": "quantum"})");
            }),
            Code::kBadValue);
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({
                "nodes": ["a", "b"],
                "links": [{"a": "a", "b": "b", "a_dev": {"qdisc": "sfq"}}]
              })");
            }),
            Code::kBadValue);
  const auto cc = spec_error_full([] {
    (void)parse_scenario_spec(R"({
      "nodes": ["a", "b"],
      "links": [{"a": "a", "b": "b"}],
      "flows": [{"src": "a", "dst": "b", "cc": "warp-drive"}]
    })");
  });
  ASSERT_TRUE(cc.has_value());
  EXPECT_EQ(cc->code(), Code::kBadValue);
  EXPECT_EQ(cc->field(), "flows[0].cc");
}

TEST(ScenarioSpecTest, RedOptionsRequireRedQdisc) {
  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(R"({
                "nodes": ["a", "b"],
                "links": [{"a": "a", "b": "b", "a_dev": {"red": {"min_threshold": 5}}}]
              })");
            }),
            Code::kBadValue);
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b",
               "a_dev": {"qdisc": "red", "red": {"min_threshold": 5, "max_threshold": 20}}}]
  })");
  EXPECT_EQ(s.topology.links[0].a_dev.qdisc, QueueDiscipline::kRed);
  EXPECT_DOUBLE_EQ(s.topology.links[0].a_dev.red.min_threshold, 5.0);

  // A literal that overflows a double would parse to inf, which the writer
  // cannot emit as JSON; it is a bad value with the field's path and line.
  for (const std::string literal : {"1e999", "-1e999"}) {
    const auto overflow = spec_error_full([&] {
      (void)parse_scenario_spec(R"({
        "nodes": ["a", "b"],
        "links": [{"a": "a", "b": "b",
                   "a_dev": {"qdisc": "red", "red": {"min_threshold": )" +
                                literal + "}}}]\n}");
    });
    ASSERT_TRUE(overflow.has_value()) << literal;
    EXPECT_EQ(overflow->code(), Code::kBadValue);
    EXPECT_EQ(overflow->field(), "links[0].a_dev.red.min_threshold");
    EXPECT_EQ(overflow->line(), 4);
  }
}

TEST(ScenarioSpecTest, DanglingLinkEndpointIsATopologyError) {
  // Parsing succeeds (the file is well-formed JSON with known keys); the
  // graph check raises the same typed TopologyError the C++ builder does.
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "ghost"}]
  })");
  try {
    check_scenario_spec(s);
    FAIL() << "expected TopologyError";
  } catch (const TopologyError& e) {
    EXPECT_EQ(e.code(), TopologyError::Code::kUnknownEndpoint);
  }
}

TEST(ScenarioSpecTest, UnroutableFlowIsATopologyError) {
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b", "c"],
    "links": [{"a": "a", "b": "b"}],
    "flows": [{"src": "a", "dst": "c"}]
  })");
  try {
    check_scenario_spec(s);
    FAIL() << "expected TopologyError";
  } catch (const TopologyError& e) {
    EXPECT_EQ(e.code(), TopologyError::Code::kUnroutableFlow);
  }
}

TEST(ScenarioSpecTest, FlowOptionsRoundTripThroughTheSchema) {
  const ScenarioSpec s = parse_scenario_spec(R"({
    "nodes": ["a", "b"],
    "links": [{"a": "a", "b": "b"}],
    "flows": [{
      "src": "a", "dst": "b", "id": 7, "start": "1500ms", "cc": "rss",
      "sender": {"mss": 1000, "enable_sack": true, "rtt": {"min_rto": "150ms"}},
      "receiver": {"ack_every": 1, "quickack_segments": 4},
      "web100": {"poll": "50ms"}
    }]
  })");
  const FlowSpec& f = s.topology.flows[0];
  EXPECT_EQ(f.flow_id, 7u);
  ASSERT_TRUE(f.start.has_value());
  EXPECT_EQ(*f.start, 1500_ms);
  EXPECT_EQ(s.flow_cc[0], "rss");
  EXPECT_EQ(f.sender.mss, 1000u);
  EXPECT_TRUE(f.sender.enable_sack);
  EXPECT_EQ(f.sender.rtt.min_rto, 150_ms);
  EXPECT_EQ(f.receiver.ack_every, 1);
  EXPECT_EQ(f.receiver.quickack_segments, 4u);
  EXPECT_TRUE(f.web100);
  EXPECT_EQ(f.web100_poll_period, 50_ms);

  // And the serialized form re-parses to the same serialized form.
  const std::string once = serialize_scenario_spec(s);
  EXPECT_EQ(serialize_scenario_spec(parse_scenario_spec(once)), once);
}

// --- sweep ----------------------------------------------------------------

constexpr const char* kSweepBase = R"({
  "nodes": ["a", "b"],
  "links": [{"a": "a", "b": "b", "a_dev": {"ifq_packets": 100}}],
  "flows": [{"src": "a", "dst": "b"}],
  "sweep": %s
})";

[[nodiscard]] std::string with_sweep(const std::string& sweep_json) {
  char buf[2048];
  std::snprintf(buf, sizeof buf, kSweepBase, sweep_json.c_str());
  return buf;
}

TEST(SweepTest, GridExpandsAsCartesianProductLastAxisFastest) {
  const auto points = expand_scenario_spec(with_sweep(R"({
    "axes": [
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20]},
      {"field": "seed", "values": [1, 2, 3]}
    ]
  })"));
  ASSERT_EQ(points.size(), 6u);
  // First axis slowest: (10,1) (10,2) (10,3) (20,1) (20,2) (20,3).
  EXPECT_EQ(points[0].spec.topology.links[0].a_dev.ifq_packets, 10u);
  EXPECT_EQ(points[0].spec.topology.seed, 1u);
  EXPECT_EQ(points[2].spec.topology.seed, 3u);
  EXPECT_EQ(points[3].spec.topology.links[0].a_dev.ifq_packets, 20u);
  EXPECT_EQ(points[3].spec.topology.seed, 1u);
  // Assignments mirror the substitutions, in axis order.
  ASSERT_EQ(points[5].assignment.size(), 2u);
  EXPECT_EQ(points[5].assignment[0].first, "links[0].a_dev.ifq_packets");
  EXPECT_EQ(points[5].assignment[0].second, "20");
  EXPECT_EQ(points[5].assignment[1].second, "3");
}

TEST(SweepTest, ZipAdvancesAxesTogether) {
  const auto points = expand_scenario_spec(with_sweep(R"({
    "mode": "zip",
    "axes": [
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20]},
      {"field": "seed", "values": [7, 8]}
    ]
  })"));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].spec.topology.links[0].a_dev.ifq_packets, 10u);
  EXPECT_EQ(points[0].spec.topology.seed, 7u);
  EXPECT_EQ(points[1].spec.topology.links[0].a_dev.ifq_packets, 20u);
  EXPECT_EQ(points[1].spec.topology.seed, 8u);
}

TEST(SweepTest, NoSweepYieldsOnePointWithEmptyAssignment) {
  const auto points = expand_scenario_spec(kMinimalSpec);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_TRUE(points[0].assignment.empty());
}

TEST(SweepTest, EmptyAxisIsATypedError) {
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "seed", "values": []}]
              })"));
            }),
            Code::kBadSweep);
}

TEST(SweepTest, ZipLengthMismatchIsATypedError) {
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "mode": "zip",
                "axes": [
                  {"field": "seed", "values": [1, 2]},
                  {"field": "links[0].a_dev.ifq_packets", "values": [10, 20, 30]}
                ]
              })"));
            }),
            Code::kBadSweep);
}

TEST(SweepTest, UnresolvablePathsAreTypedErrors) {
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "links[5].delay", "values": ["1ms"]}]
              })"));
            }),
            Code::kBadSweep);
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "phantom.knob", "values": [1]}]
              })"));
            }),
            Code::kBadSweep);
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "links[0]..x", "values": [1]}]
              })"));
            }),
            Code::kBadSweep);
}

TEST(SweepTest, AxisMayCreateAFieldTheBaseLeavesDefault) {
  // "name" is absent from the base document; the final path segment may be
  // created so fields the base leaves at their default can be swept too.
  const auto points = expand_scenario_spec(with_sweep(R"({
    "axes": [{"field": "name", "values": ["point-a", "point-b"]}]
  })"));
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].spec.name, "point-a");
  EXPECT_EQ(points[1].spec.name, "point-b");
}

TEST(SweepTest, SweptValuesPassNormalValidation) {
  // A bad unit inside a sweep value fails exactly like a hand-written one.
  EXPECT_EQ(spec_error_of([] {
              (void)expand_scenario_spec(with_sweep(R"({
                "axes": [{"field": "links[0].delay", "values": ["10parsecs"]}]
              })"));
            }),
            Code::kBadValue);
}

TEST(SweepTest, PointCountsAndModeParse) {
  const ScenarioSpec grid = parse_scenario_spec(with_sweep(R"({
    "axes": [
      {"field": "seed", "values": [1, 2]},
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20, 30]}
    ]
  })"));
  EXPECT_EQ(grid.sweep.mode, SweepSpec::Mode::kGrid);
  EXPECT_EQ(grid.sweep.point_count(), 6u);

  const ScenarioSpec zip = parse_scenario_spec(with_sweep(R"({
    "mode": "zip",
    "axes": [
      {"field": "seed", "values": [1, 2]},
      {"field": "links[0].a_dev.ifq_packets", "values": [10, 20]}
    ]
  })"));
  EXPECT_EQ(zip.sweep.mode, SweepSpec::Mode::kZip);
  EXPECT_EQ(zip.sweep.point_count(), 2u);

  EXPECT_EQ(spec_error_of([] {
              (void)parse_scenario_spec(with_sweep(R"({"mode": "spiral", "axes": []})"));
            }),
            Code::kBadValue);
}

}  // namespace
}  // namespace rss::scenario::spec
