// Workload-layer tests: the NetSource IR and its three implementations,
// netlist writer/reader round-trips (including the negative paths the
// reader must absorb without throwing), route_stream's byte-identity
// contracts (chunked vs one-shot, serial vs threaded, cache on vs off,
// fault isolation across chunk boundaries) and bounded-memory streaming,
// the Session/SessionService NetSource admission overloads, and the
// chip-level roll-up's delay model + slack arithmetic.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/fault_inject.h"
#include "batch/pipeline.h"
#include "cli/cli.h"
#include "netgen/netgen.h"
#include "report/chip_report.h"
#include "rtree/validate.h"
#include "session/route_cache.h"
#include "session/service.h"
#include "session/session.h"
#include "tech/technology.h"
#include "workload/net_source.h"
#include "workload/netlist.h"
#include "workload/stream.h"

namespace cong93 {
namespace {

// Streams everything and returns the canonical serialized results, so two
// configurations can be compared byte-for-byte.
std::string stream_bytes(NetSource& src, const Technology& tech,
                         const PipelineOptions& popts, std::size_t chunk,
                         StreamStats* stats_out = nullptr)
{
    StreamOptions sopts;
    sopts.chunk_nets = chunk;
    std::vector<NetRouteResult> all;
    const StreamStats st = route_stream(
        src, tech, popts, sopts,
        [&](std::size_t, const std::vector<WorkItem>&,
            const std::vector<NetRouteResult>& results) {
            all.insert(all.end(), results.begin(), results.end());
        });
    if (stats_out != nullptr) *stats_out = st;
    return format_results(all);
}

std::vector<WorkItem> generated_items(std::uint64_t seed, std::size_t count,
                                      Coord grid, int sinks)
{
    GeneratedNetSource src(seed, count, grid, sinks);
    std::vector<WorkItem> items;
    while (src.pull(items, 17) != 0) {}
    return items;
}

// ---------------------------------------------------------------------------
// NetSource implementations
// ---------------------------------------------------------------------------

TEST(NetSourceTest, GeneratedMatchesRandomNetsAtAnyChunking)
{
    const std::vector<Net> want = random_nets(11, 40, 500, 5);
    for (const std::size_t chunk : {1u, 7u, 40u, 1000u}) {
        GeneratedNetSource src(11, 40, 500, 5);
        EXPECT_EQ(src.size_hint(), 40u);
        std::vector<WorkItem> items;
        while (src.pull(items, chunk) != 0) {}
        ASSERT_EQ(items.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(items[i].net.source, want[i].source) << i;
            EXPECT_EQ(items[i].net.sinks, want[i].sinks) << i;
            EXPECT_EQ(items[i].meta.name, "n" + std::to_string(i));
            EXPECT_EQ(items[i].meta.diag_seed, net_seed(11, i));
        }
    }
}

TEST(NetSourceTest, VectorSourceChunksWithoutClearing)
{
    const std::vector<Net> nets = random_nets(3, 10, 200, 2);
    VectorNetSource src(nets);
    EXPECT_EQ(src.size_hint(), 10u);
    std::vector<WorkItem> items;
    EXPECT_EQ(src.pull(items, 4), 4u);
    EXPECT_EQ(src.pull(items, 4), 4u);
    EXPECT_EQ(src.pull(items, 4), 2u);  // short final chunk
    EXPECT_EQ(src.pull(items, 4), 0u);  // exhausted, stays exhausted
    EXPECT_EQ(src.pull(items, 4), 0u);
    ASSERT_EQ(items.size(), 10u);  // appended, never cleared
    for (std::size_t i = 0; i < nets.size(); ++i) {
        EXPECT_EQ(items[i].net.source, nets[i].source) << i;
        EXPECT_EQ(items[i].meta.criticality, 1.0);
        EXPECT_LT(items[i].meta.effective_required_arrival_s(), 0.0);
    }
}

TEST(NetSourceTest, EffectiveRequiredArrivalTakesTightestConstraint)
{
    NetMeta m;
    EXPECT_LT(m.effective_required_arrival_s(), 0.0);  // unconstrained
    m.required_arrival_s = 5e-9;
    EXPECT_DOUBLE_EQ(m.effective_required_arrival_s(), 5e-9);
    m.sink_required_arrival_s = {-1.0, 7e-9, 2e-9};
    EXPECT_DOUBLE_EQ(m.effective_required_arrival_s(), 2e-9);
    m.required_arrival_s = -1.0;  // only sink constraints left
    EXPECT_DOUBLE_EQ(m.effective_required_arrival_s(), 2e-9);
}

// ---------------------------------------------------------------------------
// Netlist writer / reader round-trip
// ---------------------------------------------------------------------------

TEST(NetlistTest, WriterReaderRoundTripsGeneratedDesignBitIdentically)
{
    const std::vector<WorkItem> items = generated_items(42, 25, 4000, 6);
    const std::string text = format_netlist(items, "rt");
    const NetlistDesign design = parse_netlist(text);
    EXPECT_EQ(design.name, "rt");
    ASSERT_EQ(design.items.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(design.items[i].net.source, items[i].net.source) << i;
        EXPECT_EQ(design.items[i].net.sinks, items[i].net.sinks) << i;
        EXPECT_EQ(design.items[i].meta.name, items[i].meta.name) << i;
        EXPECT_TRUE(design.items[i].meta.parse_error.empty()) << i;
    }
    // Re-serializing the parsed design reproduces every byte.
    EXPECT_EQ(format_netlist(design.items, design.name), text);
}

TEST(NetlistTest, MetadataRoundTripsThroughTheTextFormat)
{
    std::vector<WorkItem> items(1);
    items[0].net.source = Point{10, 20};
    items[0].net.sinks = {Point{30, 40}, Point{-5, 7}};
    items[0].net.sink_caps = {2.5e-13, -1.0};
    items[0].meta.name = "clk_a";
    items[0].meta.criticality = 3.25;
    items[0].meta.required_arrival_s = 4.5e-9;
    items[0].meta.sink_required_arrival_s = {-1.0, 2e-9};

    const std::string text = format_netlist(items, "meta");
    const NetlistDesign design = parse_netlist(text);
    ASSERT_EQ(design.items.size(), 1u);
    const WorkItem& got = design.items[0];
    EXPECT_EQ(got.meta.name, "clk_a");
    EXPECT_DOUBLE_EQ(got.meta.criticality, 3.25);
    EXPECT_DOUBLE_EQ(got.meta.required_arrival_s, 4.5e-9);
    ASSERT_EQ(got.meta.sink_required_arrival_s.size(), 2u);
    EXPECT_LT(got.meta.sink_required_arrival_s[0], 0.0);
    EXPECT_DOUBLE_EQ(got.meta.sink_required_arrival_s[1], 2e-9);
    ASSERT_EQ(got.net.sink_caps.size(), 2u);
    EXPECT_DOUBLE_EQ(got.net.sink_caps[0], 2.5e-13);
    EXPECT_LT(got.net.sink_caps[1], 0.0);
    EXPECT_EQ(format_netlist(design.items, design.name), text);
}

TEST(NetlistTest, CapsRoundTripBitExact)
{
    // Shortest round-trip formatting: format -> parse gives the same bits.
    std::vector<WorkItem> items(1);
    items[0].net = Net{{0, 0},
                       {{10, 0}, {0, 10}, {7, 7}},
                       {1.234567891e-12, -1.0, 0.1 + 0.2}};
    const Net& net = items[0].net;
    const std::string text = format_netlist(items, "caps");
    const NetlistDesign design = parse_netlist(text);
    ASSERT_EQ(design.items.size(), 1u);
    const Net& back = design.items[0].net;
    ASSERT_EQ(back.sink_caps.size(), net.sink_caps.size());
    EXPECT_EQ(back.sink_caps[0], net.sink_caps[0]);
    EXPECT_LT(back.sink_caps[1], 0.0);
    EXPECT_EQ(back.sink_caps[2], net.sink_caps[2]);
    EXPECT_EQ(format_netlist(design.items, design.name), text);
}

TEST(NetlistTest, CliGenOutWritesAFileTheReaderRoundTrips)
{
    const std::string path = ::testing::TempDir() + "cong93_gen_out.nets";
    CliOptions opts;
    opts.command = "gen";
    opts.random_count = 12;
    opts.sinks = 5;
    opts.grid = 1000;
    opts.seed = 9;
    opts.out_path = path;
    std::ostringstream out;
    ASSERT_EQ(run_cli(opts, out), 0);
    EXPECT_NE(out.str().find("wrote 12 nets to " + path), std::string::npos);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::ostringstream file_text;
    file_text << in.rdbuf();
    const NetlistDesign design = parse_netlist(file_text.str());
    const std::vector<WorkItem> want = generated_items(9, 12, 1000, 5);
    ASSERT_EQ(design.items.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(design.items[i].net.source, want[i].net.source) << i;
        EXPECT_EQ(design.items[i].net.sinks, want[i].net.sinks) << i;
    }
    // The writer's output is canonical: parse + re-format is a fixpoint.
    EXPECT_EQ(format_netlist(design.items, design.name), file_text.str());
}

// ---------------------------------------------------------------------------
// Reader hardening: every malformed input is a diagnostic, not an exception
// ---------------------------------------------------------------------------

TEST(NetlistNegativeTest, HeaderErrorsThrowInvalidArgument)
{
    const auto reject = [](const std::string& text) {
        std::istringstream is(text);
        EXPECT_THROW(NetlistReader r(is), std::invalid_argument) << text;
    };
    reject("");                               // empty input
    reject("\n\n\n");                         // only blank lines
    reject("net n0 2\n");                     // missing magic
    reject("# wrong magic\ndesign d 1\n");    // wrong magic
    reject("# cong93 netlist v1\n");          // EOF before design line
    reject("# cong93 netlist v1\nnet n0 2\n");         // missing design line
    reject("# cong93 netlist v1\ndesign d\n");         // no net count
    reject("# cong93 netlist v1\ndesign d -3\n");      // negative count
    reject("# cong93 netlist v1\ndesign d abc\n");     // junk count
}

// Per-net errors surface as parse_error items; routing them through
// route_stream yields invalid_input results and never an escaping throw.
TEST(NetlistNegativeTest, MalformedBlocksBecomeInvalidInputResults)
{
    const std::string text =
        "# cong93 netlist v1\n"
        "design bad 7\n"
        "net ok0 2\n"          // healthy net, must survive its bad siblings
        "source 0 0\n"
        "sink 10 10\n"
        "end\n"
        "net dup 2\nsource 0 0\nsink 1 1\nend\n"
        "net dup 2\nsource 0 0\nsink 2 2\nend\n"   // duplicate name
        "net badpin 3\nsource 0 0\nsink 1 1\nend\n"  // degree 3, 2 pins
        "net badcoord 2\nsource 0 zz\nsink 1 1\nend\n"  // junk coordinate
        "net nosource 2\nsink 1 1\nend\n"               // no source pin
        "net ok1 2\n"
        "source 5 5\n"
        "sink 6 6\n"
        "end\n";
    const NetlistDesign design = parse_netlist(text);
    ASSERT_EQ(design.items.size(), 7u);
    EXPECT_TRUE(design.items[0].meta.parse_error.empty());
    EXPECT_TRUE(design.items[1].meta.parse_error.empty());  // first "dup" is fine
    EXPECT_NE(design.items[2].meta.parse_error.find("duplicate"),
              std::string::npos);
    EXPECT_NE(design.items[3].meta.parse_error.find("pin count"),
              std::string::npos);
    EXPECT_FALSE(design.items[4].meta.parse_error.empty());
    EXPECT_FALSE(design.items[5].meta.parse_error.empty());
    EXPECT_TRUE(design.items[6].meta.parse_error.empty());
    EXPECT_EQ(design.items[6].meta.name, "ok1");

    VectorNetSource src(design.items);
    std::vector<NetRouteResult> results;
    StreamStats st;
    EXPECT_NO_THROW({
        StreamOptions sopts;
        sopts.chunk_nets = 2;  // errors must not disturb chunk boundaries
        st = route_stream(src, mcm_technology(), {}, sopts,
                          [&](std::size_t, const std::vector<WorkItem>&,
                              const std::vector<NetRouteResult>& r) {
                              results.insert(results.end(), r.begin(), r.end());
                          });
    });
    ASSERT_EQ(results.size(), 7u);
    EXPECT_TRUE(st.source_error.empty());
    EXPECT_EQ(st.pipeline.nets_invalid, 4u);
    EXPECT_EQ(st.pipeline.nets_ok + st.pipeline.nets_fallback +
                  st.pipeline.nets_uniform_width,
              3u);
    for (const std::size_t bad : {2u, 3u, 4u, 5u}) {
        EXPECT_EQ(results[bad].status, RouteStatus::invalid_input) << bad;
        ASSERT_FALSE(results[bad].diag.events.empty()) << bad;
        EXPECT_NE(results[bad].diag.events.front().message.find("netlist:"),
                  std::string::npos)
            << bad;
    }
    EXPECT_TRUE(is_routed(results[0].status));
    EXPECT_TRUE(is_routed(results[6].status));
}

TEST(NetlistNegativeTest, TruncationIsDiagnosedNotThrown)
{
    // EOF mid-net: the partial block becomes a parse_error item.
    const std::string mid_net =
        "# cong93 netlist v1\ndesign t 1\nnet a 2\nsource 0 0\nsink 1 1\n";
    const NetlistDesign d1 = parse_netlist(mid_net);
    ASSERT_EQ(d1.items.size(), 1u);
    EXPECT_NE(d1.items[0].meta.parse_error.find("EOF"), std::string::npos);

    // Header declares more nets than the file carries: a final synthetic
    // item reports the shortfall.
    const std::string short_file =
        "# cong93 netlist v1\ndesign t 3\n"
        "net a 2\nsource 0 0\nsink 1 1\nend\n";
    const NetlistDesign d2 = parse_netlist(short_file);
    ASSERT_EQ(d2.items.size(), 2u);
    EXPECT_TRUE(d2.items[0].meta.parse_error.empty());
    EXPECT_NE(d2.items[1].meta.parse_error.find("truncated design"),
              std::string::npos);
}

// std::from_chars accepts "nan" and "inf"; no crit/rat/cap may carry them,
// and a negative crit would turn a violation into TNS credit.  Each bad
// value is its net's parse error; negative rat/cap stay the unconstrained /
// default markers.
TEST(NetlistNegativeTest, NonFiniteValuesAndNegativeCritAreParseErrors)
{
    const std::string text =
        "# cong93 netlist v1\ndesign v 10\n"
        "net critnan 2 rat 1e-15 crit nan\nsource 0 0\nsink 900 900\nend\n"
        "net critneg 2 rat 1e-15 crit -5\nsource 0 0\nsink 900 900\nend\n"
        "net critinf 2 crit inf\nsource 0 0\nsink 9 9\nend\n"
        "net ratnan 2 rat nan\nsource 0 0\nsink 9 9\nend\n"
        "net ratinf 2 rat -inf\nsource 0 0\nsink 9 9\nend\n"
        "net capnan 2\nsource 0 0\nsink 9 9 cap nan\nend\n"
        "net capinf 2\nsource 0 0\nsink 9 9 cap inf\nend\n"
        "net sinkratinf 2\nsource 0 0\nsink 9 9 rat inf\nend\n"
        "net markers 2 rat -1 crit 0\nsource 0 0\nsink 9 9 cap -1 rat -2\nend\n"
        "net late 2 rat 1e-15 crit 3\nsource 0 0\nsink 900 900\nend\n";
    const NetlistDesign design = parse_netlist(text);
    ASSERT_EQ(design.items.size(), 10u);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_NE(design.items[i].meta.parse_error.find(
                      i == 1 ? "negative crit" : "bad value"),
                  std::string::npos)
            << design.items[i].meta.name << ": "
            << design.items[i].meta.parse_error;
    }
    EXPECT_TRUE(design.items[8].meta.parse_error.empty());
    EXPECT_EQ(design.items[8].meta.criticality, 0.0);
    EXPECT_LT(design.items[8].meta.required_arrival_s, 0.0);
    EXPECT_TRUE(design.items[9].meta.parse_error.empty());

    const Technology tech = mcm_technology();
    VectorNetSource src(design.items);
    ChipAggregator agg(tech, 4);
    std::vector<NetRouteResult> results;
    const StreamStats st = route_stream(
        src, tech, {}, {},
        [&](std::size_t first, const std::vector<WorkItem>& it,
            const std::vector<NetRouteResult>& r) {
            agg.add_chunk(first, it, r);
            results.insert(results.end(), r.begin(), r.end());
        });
    EXPECT_TRUE(st.source_error.empty());
    ASSERT_EQ(results.size(), 10u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(results[i].status, RouteStatus::invalid_input) << i;
    EXPECT_TRUE(is_routed(results[8].status));
    EXPECT_TRUE(is_routed(results[9].status));

    // Only "late" is constrained and it violates: TNS is a finite penalty.
    const ChipSummary& s = agg.summary();
    EXPECT_EQ(s.constrained, 1u);
    EXPECT_EQ(s.violations, 1u);
    EXPECT_TRUE(std::isfinite(s.tns_s));
    EXPECT_TRUE(std::isfinite(s.wns_s));
    EXPECT_LT(s.tns_s, 0.0);
}

// Numbers are read whole: coordinates must fit int32 and caps must be
// finite.  Each bad pin line is its net's parse error; the int32 extremes
// parse.
TEST(NetlistNegativeTest, NumberRulesOnSourceAndSinkLines)
{
    const std::vector<std::string> bad_sources = {
        "source 4294967301 7", "source 2147483648 7", "source -2147483649 7",
        "source 99999999999999999999999 7", "source 1.5 7", "source 1 7x"};
    const std::vector<std::string> bad_sinks = {
        "sink 4294967301 7",  "sink 2147483648 7",   "sink 99999999999999999999999 7",
        "sink 1.5 7",         "sink 1 7x",           "sink 1 7 cap nan",
        "sink 1 7 cap inf",   "sink 1 7 cap -inf",   "sink 1 7 cap 1e999",
        "sink 1 7 cap 2e-12f"};
    const std::size_t n_bad = bad_sources.size() + bad_sinks.size();
    std::string text = "# cong93 netlist v1\ndesign numbers " +
                       std::to_string(n_bad + 2) + "\n";
    std::size_t i = 0;
    for (const std::string& line : bad_sources)
        text += "net b" + std::to_string(i++) + " 2\n" + line + "\nsink 1 1\nend\n";
    for (const std::string& line : bad_sinks)
        text += "net b" + std::to_string(i++) + " 2\nsource 0 0\n" + line + "\nend\n";
    text += "net src_extremes 2\nsource -2147483648 2147483647\nsink 1 1\nend\n";
    text += "net sink_extremes 2\nsource 0 0\nsink -2147483648 2147483647\nend\n";

    const NetlistDesign design = parse_netlist(text);
    ASSERT_EQ(design.items.size(), n_bad + 2);
    for (std::size_t k = 0; k < n_bad; ++k) {
        const std::string& line =
            k < bad_sources.size() ? bad_sources[k] : bad_sinks[k - bad_sources.size()];
        EXPECT_FALSE(design.items[k].meta.parse_error.empty()) << line;
        EXPECT_TRUE(design.items[k].net.sinks.empty()) << line;
    }
    const Point extremes{std::numeric_limits<Coord>::min(),
                         std::numeric_limits<Coord>::max()};
    const WorkItem& src_ok = design.items[n_bad];
    const WorkItem& sink_ok = design.items[n_bad + 1];
    EXPECT_TRUE(src_ok.meta.parse_error.empty()) << src_ok.meta.parse_error;
    EXPECT_EQ(src_ok.net.source, extremes);
    EXPECT_TRUE(sink_ok.meta.parse_error.empty()) << sink_ok.meta.parse_error;
    ASSERT_EQ(sink_ok.net.sinks.size(), 1u);
    EXPECT_EQ(sink_ok.net.sinks.front(), extremes);
}

TEST(NetlistNegativeTest, OutOfBoundCoordsParseButNeverRouteOrIntern)
{
    // |coord| > kMaxRoutableCoord parses fine (it fits Coord) and is
    // rejected downstream by validate_net -- and per the PR-8 contract such
    // a net is never interned into the route cache.
    const Coord oob = kMaxRoutableCoord + 1;
    const std::string text = "# cong93 netlist v1\ndesign o 3\n"
                             "net a 2\nsource 0 0\nsink 10 10\nend\n"
                             "net b 2\nsource 0 0\nsink " +
                             std::to_string(oob) +
                             " 5\nend\n"
                             "net c 2\nsource 3 3\nsink 20 20\nend\n";
    const NetlistDesign design = parse_netlist(text);
    ASSERT_EQ(design.items.size(), 3u);
    EXPECT_TRUE(design.items[1].meta.parse_error.empty());
    EXPECT_EQ(design.items[1].net.sinks[0].x, oob);

    RouteCache cache;
    PipelineOptions popts;
    popts.cache = &cache;
    VectorNetSource src(design.items);
    std::vector<NetRouteResult> results;
    route_stream(src, mcm_technology(), popts, {},
                 [&](std::size_t, const std::vector<WorkItem>&,
                     const std::vector<NetRouteResult>& r) {
                     results.insert(results.end(), r.begin(), r.end());
                 });
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(is_routed(results[0].status));
    EXPECT_EQ(results[1].status, RouteStatus::invalid_input);
    EXPECT_TRUE(is_routed(results[2].status));
    EXPECT_EQ(cache.size(), 2u);  // the clean nets only -- never-intern
}

// ---------------------------------------------------------------------------
// route_stream byte-identity and fault isolation
// ---------------------------------------------------------------------------

TEST(RouteStreamTest, ChunkedMatchesOneShotRouteBatchByteForByte)
{
    const Technology tech = mcm_technology();
    PipelineStats stats;
    const std::vector<NetRouteResult> want_results =
        route_batch(5, 30, 600, 4, tech, {}, &stats);
    const std::string want = format_results(want_results);
    for (const std::size_t chunk : {0u, 1u, 7u, 30u, 64u}) {
        GeneratedNetSource src(5, 30, 600, 4);
        EXPECT_EQ(stream_bytes(src, tech, {}, chunk), want)
            << "chunk=" << chunk;
    }
}

TEST(RouteStreamTest, SerialMatchesFourThreadsChunkedAndCacheOnOff)
{
    const Technology tech = mcm_technology();
    // Duplicate-heavy workload so the cache actually serves hits.
    std::vector<Net> nets = random_nets(21, 15, 400, 4);
    const std::vector<Net> dup = nets;
    nets.insert(nets.end(), dup.begin(), dup.end());

    PipelineOptions serial;
    serial.threads = 1;
    VectorNetSource s1(nets);
    const std::string want = stream_bytes(s1, tech, serial, 7);

    PipelineOptions threaded;
    threaded.threads = 4;
    VectorNetSource s2(nets);
    EXPECT_EQ(stream_bytes(s2, tech, threaded, 7), want);

    RouteCache cache;
    PipelineOptions cached = threaded;
    cached.cache = &cache;
    StreamStats st;
    VectorNetSource s3(nets);
    EXPECT_EQ(stream_bytes(s3, tech, cached, 7, &st), want);
    EXPECT_GT(st.pipeline.cache_hits + st.pipeline.cache_shared, 0u);
}

TEST(RouteStreamTest, FaultInjectionStaysIsolatedAcrossChunkBoundaries)
{
    const Technology tech = mcm_technology();
    PipelineOptions faulty;
    faulty.faults =
        FaultPlan::parse("seed=13,topology=0.4,fallback=0.3,wiresize=0.3");

    // Same chunking, serial vs threaded: injected faults are pure functions
    // of the chunk-local net index, so the stream stays byte-identical.
    GeneratedNetSource f1(77, 40, 500, 4);
    PipelineOptions faulty_serial = faulty;
    faulty_serial.threads = 1;
    StreamStats fst;
    const std::string faulted = stream_bytes(f1, tech, faulty_serial, 9, &fst);
    EXPECT_GT(fst.pipeline.fault_events, 0u);

    GeneratedNetSource f2(77, 40, 500, 4);
    PipelineOptions faulty_mt = faulty;
    faulty_mt.threads = 4;
    EXPECT_EQ(stream_bytes(f2, tech, faulty_mt, 9), faulted);

    // Isolation: nets the plan leaves alone route exactly as in a
    // fault-free stream; every diverging net carries diagnostic events.
    std::vector<NetRouteResult> clean_r, fault_r;
    const auto collect = [](std::vector<NetRouteResult>& into) {
        return [&into](std::size_t, const std::vector<WorkItem>&,
                       const std::vector<NetRouteResult>& r) {
            into.insert(into.end(), r.begin(), r.end());
        };
    };
    StreamOptions sopts;
    sopts.chunk_nets = 9;
    GeneratedNetSource c1(77, 40, 500, 4);
    route_stream(c1, tech, {}, sopts, collect(clean_r));
    GeneratedNetSource c2(77, 40, 500, 4);
    route_stream(c2, tech, faulty, sopts, collect(fault_r));
    ASSERT_EQ(clean_r.size(), fault_r.size());
    std::size_t untouched = 0;
    for (std::size_t i = 0; i < clean_r.size(); ++i) {
        const std::string a =
            format_results(std::vector<NetRouteResult>{clean_r[i]});
        const std::string b =
            format_results(std::vector<NetRouteResult>{fault_r[i]});
        if (a == b) {
            ++untouched;
        } else {
            EXPECT_FALSE(fault_r[i].diag.events.empty())
                << "net " << i << " diverged without a diagnostic";
        }
    }
    EXPECT_GT(untouched, 0u);  // the plan's rates leave most nets alone
    EXPECT_LT(untouched, clean_r.size());  // and fault at least one
}

TEST(RouteStreamTest, SourceThrowStopsStreamCleanly)
{
    class ThrowingSource : public NetSource {
    public:
        std::size_t pull(std::vector<WorkItem>& out, std::size_t) override
        {
            if (calls_++ == 0) {
                WorkItem item;
                item.net.source = Point{0, 0};
                item.net.sinks = {Point{5, 5}};
                out.push_back(item);
                return 1;
            }
            throw std::runtime_error("disk on fire");
        }

    private:
        int calls_ = 0;
    };
    ThrowingSource src;
    StreamOptions sopts;
    sopts.chunk_nets = 1;
    std::size_t seen = 0;
    StreamStats st;
    EXPECT_NO_THROW({
        st = route_stream(src, mcm_technology(), {}, sopts,
                          [&](std::size_t, const std::vector<WorkItem>&,
                              const std::vector<NetRouteResult>& r) {
                              seen += r.size();
                          });
    });
    EXPECT_EQ(seen, 1u);  // the complete chunk was delivered
    EXPECT_NE(st.source_error.find("disk on fire"), std::string::npos);
}

/// A generated 40-net design with five malformed blocks spliced in: a
/// pin-count mismatch, a junk coordinate, a duplicate name, a block missing
/// its `end` (recovered through the pushed-back next `net` line) and a stray
/// line between blocks.
std::string netlist_with_parse_errors()
{
    const std::string clean = format_netlist(generated_items(31, 40, 500, 4), "mixed");
    const std::vector<std::string> bad = {
        "net bad_pin 3\nsource 0 0\nsink 1 1\nend\n",
        "net bad_coord 2\nsource 0 zz\nsink 1 1\nend\n",
        "net n2 2\nsource 0 0\nsink 3 3\nend\n",
        "net no_end 2\nsource 0 0\nsink 1 1\n",
        "stray 1 2 3\n",
    };
    std::istringstream in(clean);
    std::ostringstream out;
    std::string line;
    std::size_t blocks = 0, spliced = 0;
    while (std::getline(in, line)) {
        if (line.rfind("design ", 0) == 0) {
            out << "design mixed " << 40 + bad.size() << '\n';
            continue;
        }
        out << line << '\n';
        if (line == "end" && ++blocks % 7 == 3 && spliced < bad.size())
            out << bad[spliced++];
    }
    EXPECT_EQ(spliced, bad.size());
    return out.str();
}

/// Streams `text` through a NetlistReader; returns the canonical results
/// followed by the chip roll-up's machine line.
std::string stream_netlist(const std::string& text, const PipelineOptions& popts,
                           std::size_t chunk)
{
    std::istringstream in(text);
    NetlistReader reader(in);
    StreamOptions sopts;
    sopts.chunk_nets = chunk;
    const Technology tech = mcm_technology();
    ChipAggregator agg(tech);
    std::vector<NetRouteResult> all;
    const StreamStats st = route_stream(
        reader, tech, popts, sopts,
        [&](std::size_t first, const std::vector<WorkItem>& items,
            const std::vector<NetRouteResult>& results) {
            agg.add_chunk(first, items, results);
            all.insert(all.end(), results.begin(), results.end());
        });
    EXPECT_TRUE(st.source_error.empty()) << st.source_error;
    EXPECT_EQ(st.pipeline.nets_invalid, 5u);
    return format_results(all) + agg.machine_line();
}

TEST(RouteStreamTest, ExternalPoolMatchesSerialWithParseErrorsAtAnyChunking)
{
    const std::string text = netlist_with_parse_errors();
    ASSERT_EQ(parse_netlist(text).items.size(), 45u);

    ThreadPool pool(4);
    PipelineOptions pooled;
    pooled.threads = 4;
    pooled.pool = &pool;
    PipelineOptions own;  // route_stream builds its own 4-worker pool
    own.threads = 4;
    PipelineOptions serial;
    serial.threads = 1;
    for (const std::size_t chunk : {1u, 3u, 4096u, 0u}) {
        const std::string want = stream_netlist(text, serial, chunk);
        EXPECT_EQ(stream_netlist(text, pooled, chunk), want) << "chunk=" << chunk;
        EXPECT_EQ(stream_netlist(text, own, chunk), want) << "chunk=" << chunk;
    }
}

/// Records the thread of every pull and how many pulls were made; throws
/// on pull number `throw_at` (1-based; 0 never throws).
class RecordingSource : public NetSource {
public:
    explicit RecordingSource(NetSource& inner, std::size_t throw_at = 0)
        : inner_(inner), throw_at_(throw_at)
    {
    }

    std::size_t pull(std::vector<WorkItem>& out, std::size_t max_items) override
    {
        threads.push_back(std::this_thread::get_id());
        if (threads.size() == throw_at_) throw std::runtime_error("disk on fire");
        return inner_.pull(out, max_items);
    }

    std::vector<std::thread::id> threads;

private:
    NetSource& inner_;
    std::size_t throw_at_;
};

TEST(RouteStreamTest, PullsAndVisitsRunOnTheCallingThread)
{
    ThreadPool pool(4);
    PipelineOptions popts;
    popts.pool = &pool;
    GeneratedNetSource gen(3, 40, 500, 4);
    RecordingSource src(gen);
    StreamOptions sopts;
    sopts.chunk_nets = 5;
    std::vector<std::thread::id> visitors;
    std::vector<std::size_t> firsts;
    const StreamStats st = route_stream(
        src, mcm_technology(), popts, sopts,
        [&](std::size_t first, const std::vector<WorkItem>&,
            const std::vector<NetRouteResult>&) {
            visitors.push_back(std::this_thread::get_id());
            firsts.push_back(first);
        });
    const std::thread::id self = std::this_thread::get_id();
    EXPECT_EQ(st.chunks, 8u);
    EXPECT_EQ(src.threads.size(), 9u);  // 8 chunks and the empty last pull
    for (const std::thread::id t : src.threads) EXPECT_EQ(t, self);
    ASSERT_EQ(visitors.size(), 8u);
    for (std::size_t k = 0; k < visitors.size(); ++k) {
        EXPECT_EQ(visitors[k], self);
        EXPECT_EQ(firsts[k], 5 * k);
    }
    EXPECT_GT(st.pull_seconds, 0.0);
}

TEST(RouteStreamTest, ThrowOnPrefetchedPullDeliversEveryEarlierChunkOnce)
{
    // The 4th pull is the one that overlaps chunk 3's routing: chunks 1-3
    // must still be visited exactly once, in order, and the source must not
    // be pulled again after it threw.
    ThreadPool pool(4);
    PipelineOptions pooled;
    pooled.pool = &pool;
    PipelineOptions serial;
    serial.threads = 1;
    for (const PipelineOptions& popts : {pooled, serial}) {
        GeneratedNetSource gen(9, 40, 500, 4);
        RecordingSource src(gen, 4);
        StreamOptions sopts;
        sopts.chunk_nets = 4;
        std::vector<std::size_t> firsts;
        std::size_t seen = 0;
        StreamStats st;
        EXPECT_NO_THROW({
            st = route_stream(src, mcm_technology(), popts, sopts,
                              [&](std::size_t first, const std::vector<WorkItem>& items,
                                  const std::vector<NetRouteResult>& r) {
                                  EXPECT_EQ(items.size(), r.size());
                                  firsts.push_back(first);
                                  seen += r.size();
                              });
        });
        EXPECT_EQ(firsts, (std::vector<std::size_t>{0, 4, 8}));
        EXPECT_EQ(seen, 12u);
        EXPECT_EQ(st.chunks, 3u);
        EXPECT_EQ(src.threads.size(), 4u);
        EXPECT_NE(st.source_error.find("pull: disk on fire"), std::string::npos);
    }
}

TEST(RouteStreamTest, PeakMemoryTracksChunkSizeNotDesignSize)
{
    // A 10x larger design streamed at the same chunk size must keep the
    // same workspace footprint (arena reuse): bounded-memory streaming.
    const Technology tech = mcm_technology();
    PipelineOptions popts;
    popts.threads = 1;
    popts.wiresize = false;
    popts.moment_check = false;
    StreamStats small_st, large_st;
    GeneratedNetSource small(1, 2000, 1000, 3);
    stream_bytes(small, tech, popts, 128, &small_st);
    GeneratedNetSource large(1, 20000, 1000, 3);
    stream_bytes(large, tech, popts, 128, &large_st);
    ASSERT_GT(small_st.workspace_resident_bytes, 0u);
    EXPECT_EQ(large_st.nets, 20000u);
    EXPECT_EQ(large_st.chunks, 157u);  // ceil(20000 / 128)
    EXPECT_EQ(large_st.peak_chunk_nets, 128u);
    const double ratio =
        static_cast<double>(large_st.workspace_resident_bytes) /
        static_cast<double>(small_st.workspace_resident_bytes);
    EXPECT_LE(ratio, 2.0) << "resident bytes grew with design size: "
                          << small_st.workspace_resident_bytes << " -> "
                          << large_st.workspace_resident_bytes;
}

TEST(RouteStreamTest, NetsPerSecCoversTheWholeCallIncludingPulls)
{
    // A source that sleeps in every pull: the stream rate must count that
    // time on the serial path (pulls outside route_batch) and on the pooled
    // one (pulls overlapped with routing) alike.
    class SlowSource : public NetSource {
    public:
        explicit SlowSource(NetSource& inner) : inner_(inner) {}
        std::size_t pull(std::vector<WorkItem>& out, std::size_t max_items) override
        {
            std::this_thread::sleep_for(std::chrono::milliseconds(3));
            return inner_.pull(out, max_items);
        }

    private:
        NetSource& inner_;
    };
    for (const int threads : {1, 4}) {
        GeneratedNetSource gen(12, 40, 500, 4);
        SlowSource src(gen);
        PipelineOptions popts;
        popts.threads = threads;
        StreamOptions sopts;
        sopts.chunk_nets = 5;
        const StreamStats st = route_stream(src, mcm_technology(), popts, sopts);
        ASSERT_EQ(st.nets, 40u);
        ASSERT_GT(st.nets_per_sec, 0.0);
        EXPECT_GE(st.pull_seconds, 9 * 0.003) << "threads=" << threads;
        EXPECT_GE(static_cast<double>(st.nets) / st.nets_per_sec, st.pull_seconds)
            << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------------
// Session / SessionService NetSource admission
// ---------------------------------------------------------------------------

TEST(WorkloadSessionTest, SessionNetSourceAdmissionMatchesVectorAdmission)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = random_nets(8, 20, 300, 3);

    Session by_vector(tech);
    const std::vector<NetId> ids_v = by_vector.add_batch(nets);

    Session by_source(tech);
    VectorNetSource src(nets);
    PipelineStats stats;
    const std::vector<NetId> ids_s = by_source.add_batch(src, 6, &stats);

    ASSERT_EQ(ids_s, ids_v);
    EXPECT_EQ(stats.nets_routed, 20u);
    EXPECT_GT(stats.compiles_per_net(), 0.0);
    for (const NetId id : ids_v) {
        const std::string a = format_results(
            std::vector<NetRouteResult>{by_vector.result(id)});
        const std::string b = format_results(
            std::vector<NetRouteResult>{by_source.result(id)});
        EXPECT_EQ(a, b) << "net " << id;
    }
}

TEST(WorkloadSessionTest, ServiceNetSourceAdmissionChunksThroughBackpressure)
{
    const Technology tech = mcm_technology();
    SessionService svc(tech);
    const SessionId sid = svc.open();
    const std::vector<Net> nets = random_nets(4, 12, 300, 3);
    GeneratedNetSource src(4, 12, 300, 3);
    PipelineStats stats;
    const std::vector<NetId> ids = svc.add_batch(sid, src, 5, &stats);
    ASSERT_EQ(ids.size(), 12u);
    EXPECT_EQ(svc.stats().batches, 3u);  // ceil(12 / 5) admission tickets
    for (std::size_t i = 0; i < ids.size(); ++i) {
        // Chunked service admission routes each net exactly as a plain
        // session routes the same vector.
        Session ref(tech);
        const NetId rid = ref.add_batch({nets[i]})[0];
        EXPECT_EQ(format_results({svc.result(sid, ids[i])}),
                  format_results({ref.result(rid)}))
            << i;
    }
}

TEST(WorkloadSessionTest, ChunkedAdmissionSumsWorkspaceCounters)
{
    // Each chunk routes through its own workspaces; the summed stats must
    // still count every chunk's compiles, not just the last chunk's.
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = random_nets(8, 20, 300, 3);

    Session session(tech);
    VectorNetSource src(nets);
    PipelineStats stats;
    session.add_batch(src, 6, &stats);
    EXPECT_EQ(stats.counters.tree_builds, 20u);
    EXPECT_EQ(stats.compiles_per_net(), 1.0);

    SessionService svc(tech);
    const SessionId sid = svc.open();
    VectorNetSource svc_src(nets);
    PipelineStats svc_stats;
    svc.add_batch(sid, svc_src, 6, &svc_stats);
    EXPECT_EQ(svc_stats.counters.tree_builds, 20u);
    EXPECT_EQ(svc_stats.compiles_per_net(), 1.0);
}

// ---------------------------------------------------------------------------
// Chip-level roll-up
// ---------------------------------------------------------------------------

TEST(ChipReportTest, CrossingCountMatchesTheVprTable)
{
    EXPECT_DOUBLE_EQ(crossing_count(0), 1.0);
    EXPECT_DOUBLE_EQ(crossing_count(1), 1.0);
    EXPECT_DOUBLE_EQ(crossing_count(3), 1.0);
    EXPECT_DOUBLE_EQ(crossing_count(4), 1.0828);
    EXPECT_DOUBLE_EQ(crossing_count(50), 2.7933);
    // Linear extrapolation past the table.
    EXPECT_NEAR(crossing_count(60), 2.7933 + 0.02616 * 10, 1e-12);
    // Monotone non-decreasing over the table range.
    for (std::size_t p = 1; p < 60; ++p)
        EXPECT_LE(crossing_count(p), crossing_count(p + 1)) << p;
}

TEST(ChipReportTest, BoundingBoxDelayMatchesHandLumpedElmore)
{
    const Technology tech = mcm_technology();
    Net net;
    net.source = Point{0, 0};
    net.sinks = {Point{300, 400}};
    // 2 pins: crossing count 1.0, HPWL = 700 grid units.
    const double wl = 700.0;
    const double cw = wl * tech.c_grid();
    const double rw = wl * tech.r_grid();
    const double cs = tech.sink_load_f;
    const double want = tech.driver_resistance_ohm * (cw + cs) +
                        rw * (cw / 2.0 + cs);
    EXPECT_NEAR(bounding_box_delay_s(net, tech), want, want * 1e-12);

    Net empty;
    empty.source = Point{5, 5};
    EXPECT_DOUBLE_EQ(bounding_box_delay_s(empty, tech), 0.0);

    // A per-sink cap overrides the default sink load in the estimate.
    Net capped = net;
    capped.sink_caps = {3.0 * cs};
    EXPECT_GT(bounding_box_delay_s(capped, tech),
              bounding_box_delay_s(net, tech));
}

TEST(ChipReportTest, AggregatorComputesSlacksWnsAndWeightedTns)
{
    const Technology tech = mcm_technology();
    std::vector<WorkItem> items = generated_items(15, 6, 2000, 4);
    // Constrain three nets; leave the rest unconstrained.
    items[0].meta.required_arrival_s = 1e-12;  // hopeless: negative slack
    items[0].meta.criticality = 2.0;
    items[1].meta.required_arrival_s = 1.0;    // trivially met
    items[2].meta.sink_required_arrival_s = {-1, -1, -1, 2e-12};  // violated
    VectorNetSource src(items);
    ChipAggregator agg(tech, 3);
    route_stream(src, tech, {}, {},
                 [&](std::size_t first, const std::vector<WorkItem>& it,
                     const std::vector<NetRouteResult>& r) {
                     agg.add_chunk(first, it, r);
                 });
    const ChipSummary& s = agg.summary();
    EXPECT_EQ(s.nets, 6u);
    EXPECT_EQ(s.routed, 6u);
    EXPECT_EQ(s.constrained, 3u);
    EXPECT_EQ(s.violations, 2u);
    EXPECT_LT(s.wns_s, 0.0);
    EXPECT_LT(s.tns_s, 0.0);
    EXPECT_LE(s.tns_s, s.wns_s);  // weighted sum at least as negative
    EXPECT_GT(s.ratio_nets, 0u);
    EXPECT_GE(s.ratio_max, s.ratio_mean);
    EXPECT_GE(s.ratio_mean, s.ratio_min);
    EXPECT_GT(s.max_delay_s, 0.0);

    // Leaderboard is bounded and worst-first: the two violated nets lead.
    const std::vector<ChipNetRow>& worst = agg.worst_nets();
    ASSERT_EQ(worst.size(), 3u);
    EXPECT_LT(worst[0].slack_s, 0.0);
    EXPECT_LT(worst[1].slack_s, 0.0);
    EXPECT_LE(worst[0].slack_s, worst[1].slack_s);

    // The machine line carries every summary field.
    const std::string line = agg.machine_line();
    for (const char* key :
         {"chip: nets=", " routed=", " constrained=", " violations=",
          " wirelength=", " max_delay_s=", " wns_s=", " tns_s=",
          " ratio_mean=", " ratio_min=", " ratio_max=", " ratio_nets="})
        EXPECT_NE(line.find(key), std::string::npos) << key;

    // A 3000-net design with planted RATs: every tenth net gets a hopeless
    // 0.1x its bounding-box estimate, every third a loose 1.5x.  Every
    // routed net yields a measured-vs-estimate ratio inside a physical band,
    // and the hopeless RATs surface as violations.
    std::vector<WorkItem> planted = generated_items(72, 3000, kMcmGrid, 6);
    for (std::size_t i = 0; i < planted.size(); ++i) {
        const double bb = bounding_box_delay_s(planted[i].net, tech);
        if (i % 10 == 0) {
            planted[i].meta.required_arrival_s = 0.1 * bb;
            planted[i].meta.criticality = 2.0;
        } else if (i % 3 == 0) {
            planted[i].meta.required_arrival_s = 1.5 * bb;
        }
    }
    VectorNetSource planted_src(planted);
    ChipAggregator model(tech, 10);
    StreamOptions sopts;
    sopts.chunk_nets = 512;
    route_stream(planted_src, tech, {}, sopts,
                 [&](std::size_t first, const std::vector<WorkItem>& it,
                     const std::vector<NetRouteResult>& r) {
                     model.add_chunk(first, it, r);
                 });
    const ChipSummary& m = model.summary();
    EXPECT_EQ(m.routed, 3000u);
    EXPECT_EQ(m.ratio_nets, m.routed);
    EXPECT_GT(m.ratio_min, 0.0);
    EXPECT_LT(m.ratio_max, 100.0);
    EXPECT_GT(m.violations, 0u);
    EXPECT_LT(m.wns_s, 0.0);
    EXPECT_LE(m.tns_s, m.wns_s);
}

TEST(ChipReportTest, BundledExampleDesignRoutesWithoutViolations)
{
    std::ifstream in(std::string(CONG93_EXAMPLES_DIR) + "/chip_small.nets");
    ASSERT_TRUE(in.is_open()) << "examples/chip_small.nets missing";
    NetlistReader reader(in);
    EXPECT_EQ(reader.design_name(), "chip_small");
    EXPECT_EQ(reader.declared_count(), 8u);
    const Technology tech = mcm_technology();
    ChipAggregator agg(tech, 10);
    StreamStats st;
    StreamOptions sopts;
    sopts.chunk_nets = 3;
    st = route_stream(reader, tech, {}, sopts,
                      [&](std::size_t first, const std::vector<WorkItem>& it,
                          const std::vector<NetRouteResult>& r) {
                          agg.add_chunk(first, it, r);
                      });
    EXPECT_TRUE(st.source_error.empty());
    const ChipSummary& s = agg.summary();
    EXPECT_EQ(s.nets, 8u);
    EXPECT_EQ(s.routed, 8u);
    EXPECT_EQ(s.constrained, 5u);
    EXPECT_EQ(s.violations, 0u);  // the example is timing-clean by design
    EXPECT_GT(s.total_wirelength, 0);

    // The chip CLI over the same file is byte-identical serial vs threaded
    // (the '#' telemetry lines excluded).
    const auto run_chip_cli = [&](int threads) {
        CliOptions o;
        o.command = "chip";
        o.input_path = std::string(CONG93_EXAMPLES_DIR) + "/chip_small.nets";
        o.threads = threads;
        o.chunk_nets = 3;
        std::ostringstream out;
        EXPECT_EQ(run_cli(o, out), 0);
        std::istringstream is(out.str());
        std::string line, kept;
        while (std::getline(is, line))
            if (line.rfind('#', 0) != 0) kept += line + '\n';
        return kept;
    };
    EXPECT_EQ(run_chip_cli(1), run_chip_cli(4));
}

}  // namespace
}  // namespace cong93
