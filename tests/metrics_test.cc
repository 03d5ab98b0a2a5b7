/**
 * @file
 * Tests for the host-side telemetry pieces (src/obs/metrics,
 * src/obs/spans): histogram bucket/quantile edge cases, the strict
 * line grammar of the Prometheus text exposition, the flat-JSON
 * export round-tripping through parseFlatJson, and the
 * trace-event writer producing a loadable JSON array.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/jsonl.hh"
#include "obs/metrics.hh"
#include "obs/spans.hh"

namespace cwsim
{
namespace
{

using obs::Histogram;
using obs::MetricsRegistry;
using obs::TraceEventWriter;

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(ObsHistogram, EmptyHistogramHasNoCountAndNanQuantiles)
{
    Histogram h({1.0, 2.0, 4.0});
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
    EXPECT_TRUE(std::isnan(h.quantile(0.99)));
}

TEST(ObsHistogram, SingleSampleLandsInItsCoveringBucket)
{
    Histogram h({1.0, 2.0, 4.0});
    h.observe(1.5);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_DOUBLE_EQ(h.sum(), 1.5);
    // Buckets are upper edges: 1.5 belongs to (1, 2].
    EXPECT_EQ(h.bucketValue(0), 0u);
    EXPECT_EQ(h.bucketValue(1), 1u);
    EXPECT_EQ(h.bucketValue(2), 0u);
    // Any quantile of a one-sample histogram interpolates inside the
    // covering bucket, so it must land within that bucket's edges.
    for (double q : {0.1, 0.5, 0.9, 1.0}) {
        double est = h.quantile(q);
        EXPECT_GE(est, 1.0) << "q=" << q;
        EXPECT_LE(est, 2.0) << "q=" << q;
    }
}

TEST(ObsHistogram, BoundaryValueCountsIntoTheLowerBucket)
{
    // Prometheus le semantics: a sample equal to an upper bound is
    // counted by that bound's bucket.
    Histogram h({1.0, 2.0});
    h.observe(1.0);
    EXPECT_EQ(h.bucketValue(0), 1u);
    EXPECT_EQ(h.bucketValue(1), 0u);
}

TEST(ObsHistogram, OverflowSamplesClampQuantileToHighestFiniteBound)
{
    Histogram h({1.0, 2.0, 4.0});
    h.observe(100.0); // beyond every finite bound -> +Inf bucket
    h.observe(500.0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.bucketValue(3), 2u) << "last index is the +Inf bucket";
    // The estimate cannot exceed what the layout can represent.
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 4.0);
}

TEST(ObsHistogram, QuantilesInterpolateAcrossBuckets)
{
    Histogram h({10.0, 20.0, 30.0});
    // 10 samples in (0,10], 10 in (10,20]: p50 sits at the boundary,
    // p25 inside the first bucket, p75 inside the second.
    for (int i = 0; i < 10; ++i)
        h.observe(5.0);
    for (int i = 0; i < 10; ++i)
        h.observe(15.0);
    EXPECT_NEAR(h.quantile(0.5), 10.0, 1.0);
    EXPECT_GT(h.quantile(0.75), 10.0);
    EXPECT_LE(h.quantile(0.75), 20.0);
    EXPECT_LE(h.quantile(0.25), 10.0);
    EXPECT_GT(h.quantile(0.25), 0.0);
}

TEST(ObsHistogram, DefaultLatencyLayoutIsAscendingAndSpansTheRange)
{
    std::vector<double> bounds = Histogram::latencySeconds();
    ASSERT_GE(bounds.size(), 8u);
    for (size_t i = 1; i < bounds.size(); ++i)
        EXPECT_GT(bounds[i], bounds[i - 1]) << "at " << i;
    EXPECT_LE(bounds.front(), 0.001);
    EXPECT_GE(bounds.back(), 60.0);
}

// ---------------------------------------------------------------------
// Registry + Prometheus exposition
// ---------------------------------------------------------------------

void
populateRegistry(MetricsRegistry &reg)
{
    reg.counter("test_events_total", "Events seen.").inc(3);
    reg.counter("test_outcomes_total", "Outcomes by kind.", "kind",
                "ok")
        .inc(2);
    reg.counter("test_outcomes_total", "Outcomes by kind.", "kind",
                "crash");
    reg.gauge("test_depth", "Current depth.").set(1.5);
    Histogram &h = reg.histogram("test_latency_seconds",
                                 "Latency.", {0.1, 1.0, 10.0});
    h.observe(0.05);
    h.observe(5.0);
}

TEST(ObsRegistry, RegistrationIsIdempotentPerNameAndLabel)
{
    MetricsRegistry reg;
    obs::Counter &a = reg.counter("x_total", "X.");
    obs::Counter &b = reg.counter("x_total", "X.");
    EXPECT_EQ(&a, &b);
    obs::Counter &ok = reg.counter("y_total", "Y.", "kind", "ok");
    obs::Counter &bad = reg.counter("y_total", "Y.", "kind", "bad");
    EXPECT_NE(&ok, &bad) << "distinct label values, distinct series";
    EXPECT_EQ(&ok, &reg.counter("y_total", "Y.", "kind", "ok"));
}

TEST(ObsRegistry, PrometheusTextObeysTheExpositionLineGrammar)
{
    MetricsRegistry reg;
    populateRegistry(reg);
    std::string text = reg.prometheusText();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n') << "exposition must end with newline";

    // version 0.0.4 grammar, strict: every line is a HELP comment, a
    // TYPE comment, or a sample with an optional single label and a
    // numeric value.
    const std::regex help(R"(# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+)");
    const std::regex type(
        R"(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram))");
    const std::regex sample(
        R"([a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"\})? (-?[0-9.e+-]+|\+Inf|NaN))");

    std::map<std::string, int> typedNames;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        ASSERT_FALSE(line.empty()) << "no blank lines in exposition";
        if (line.rfind("# HELP", 0) == 0) {
            EXPECT_TRUE(std::regex_match(line, help)) << line;
        } else if (line.rfind("# TYPE", 0) == 0) {
            EXPECT_TRUE(std::regex_match(line, type)) << line;
            std::istringstream t(line);
            std::string hash, kw, name;
            t >> hash >> kw >> name;
            EXPECT_EQ(typedNames.count(name), 0u)
                << "TYPE emitted twice for " << name;
            typedNames[name] = 1;
        } else {
            EXPECT_TRUE(std::regex_match(line, sample)) << line;
            // Samples must follow their TYPE header: the series name
            // (label and histogram suffix stripped) has been typed.
            std::string name = line.substr(0, line.find_first_of("{ "));
            for (const char *suffix : {"_bucket", "_sum", "_count"}) {
                size_t at = name.rfind(suffix);
                if (at != std::string::npos &&
                    at + std::string(suffix).size() == name.size() &&
                    typedNames.count(name.substr(0, at))) {
                    name = name.substr(0, at);
                    break;
                }
            }
            EXPECT_EQ(typedNames.count(name), 1u)
                << "sample before its TYPE: " << line;
        }
    }
}

TEST(ObsRegistry, PrometheusHistogramBucketsAreCumulativeWithInf)
{
    MetricsRegistry reg;
    populateRegistry(reg);
    std::string text = reg.prometheusText();
    // Two samples: 0.05 <= 0.1, 5.0 <= 10.0. Cumulative counts.
    EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"0.1\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"1\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"10\"} 2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("test_latency_seconds_bucket{le=\"+Inf\"} 2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("test_latency_seconds_count 2"),
              std::string::npos)
        << text;
    // Both label series of the outcome counter appear.
    EXPECT_NE(text.find("test_outcomes_total{kind=\"ok\"} 2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("test_outcomes_total{kind=\"crash\"} 0"),
              std::string::npos)
        << text;
}

TEST(ObsRegistry, FlatJsonParsesAndFlattensLabelsAndQuantiles)
{
    MetricsRegistry reg;
    populateRegistry(reg);
    std::string json = reg.flatJson();
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(json, fields)) << json;
    EXPECT_EQ(fields["test_events_total"], "3");
    EXPECT_EQ(fields["test_outcomes_total_ok"], "2");
    EXPECT_EQ(fields["test_outcomes_total_crash"], "0");
    EXPECT_EQ(fields["test_depth"], "1.5");
    EXPECT_EQ(fields["test_latency_seconds_count"], "2");
    ASSERT_TRUE(fields.count("test_latency_seconds_p50"));
    ASSERT_TRUE(fields.count("test_latency_seconds_p90"));
    ASSERT_TRUE(fields.count("test_latency_seconds_p99"));
    double p50 = std::strtod(fields["test_latency_seconds_p50"].c_str(),
                             nullptr);
    EXPECT_GT(p50, 0.0);
    EXPECT_LE(p50, 10.0);
}

TEST(ObsRegistry, EmptyHistogramQuantilesExportAsQuotedNan)
{
    MetricsRegistry reg;
    reg.histogram("idle_seconds", "Never observed.", {1.0});
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parseFlatJson(reg.flatJson(), fields));
    EXPECT_EQ(fields["idle_seconds_count"], "0");
    EXPECT_EQ(fields["idle_seconds_p50"], "nan")
        << "non-finite numbers must not corrupt the JSON";
}

// ---------------------------------------------------------------------
// Trace-event writer
// ---------------------------------------------------------------------

TEST(ObsSpans, WriterEmitsAValidOneEventPerLineJsonArray)
{
    const std::string path =
        "trace_test." + std::to_string(::getpid()) + ".json";
    {
        TraceEventWriter w(path);
        ASSERT_TRUE(w.ok());
        w.metaProcessName(1, "clients");
        w.metaThreadName(1, 7, "client 7");
        w.complete("run", "run", 1, 7, 100, 500,
                   {{"workload", "129.compress"}});
        w.complete("queued", "sched", 1, 7, 100, 50);
        w.instant("cache_hit", "cache", 1, 7, 700,
                  {{"quote\"backslash\\", "tab\there"}});
        w.finish();
        w.finish(); // idempotent
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    std::remove(path.c_str());

    ASSERT_GE(lines.size(), 3u);
    EXPECT_EQ(lines.front(), "[");
    EXPECT_EQ(lines.back(), "]");
    // Each interior line is one event object, comma-separated; the
    // flat-JSON parser validates each after stripping "args" (the one
    // nested object the format uses) and the trailing comma.
    size_t completes = 0;
    for (size_t i = 1; i + 1 < lines.size(); ++i) {
        std::string body = lines[i];
        if (!body.empty() && body.back() == ',')
            body.pop_back();
        size_t at = body.find(",\"args\":{");
        if (at != std::string::npos) {
            size_t close = body.rfind('}', body.size() - 2);
            ASSERT_NE(close, std::string::npos) << body;
            body = body.substr(0, at) + body.substr(close + 1);
        }
        std::map<std::string, std::string> evf;
        ASSERT_TRUE(parseFlatJson(body, evf)) << lines[i];
        ASSERT_TRUE(evf.count("ph")) << body;
        if (evf["ph"] == "X") {
            ++completes;
            double ts = std::strtod(evf["ts"].c_str(), nullptr);
            double dur = std::strtod(evf["dur"].c_str(), nullptr);
            EXPECT_GE(ts, 0.0) << body;
            EXPECT_GE(dur, 0.0) << "negative duration: " << body;
        }
    }
    EXPECT_EQ(completes, 2u);
}

TEST(ObsSpans, TimestampsAreClampedNonNegative)
{
    const std::string path =
        "trace_clamp." + std::to_string(::getpid()) + ".json";
    TraceEventWriter w(path);
    ASSERT_TRUE(w.ok());
    // A time point before the writer's epoch must clamp to 0, not
    // wrap to a huge unsigned microsecond count.
    TraceEventWriter::Clock::time_point past =
        TraceEventWriter::Clock::now() - std::chrono::seconds(10);
    EXPECT_EQ(w.tsUs(past), 0u);
    w.finish();
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace cwsim
