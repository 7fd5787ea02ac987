// Workload-layer tests: the NetSource IR and its three implementations,
// netlist writer/reader round-trips (including the negative paths the
// reader must absorb without throwing), route_stream's byte-identity
// contracts (chunked vs one-shot, serial vs threaded, cache on vs off,
// fault isolation across chunk boundaries) and bounded-memory streaming,
// the Session/SessionService NetSource admission overloads, and the
// chip-level roll-up's delay model + slack arithmetic.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
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
    EXPECT_GT(stats.compiles_per_net, 0.0);
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
