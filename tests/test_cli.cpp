#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "batch/pipeline.h"
#include "batch/workspace.h"
#include "cli/cli.h"
#include "netgen/netgen.h"
#include "rtree/io.h"
#include "session/session.h"
#include "tech/technology.h"
#include "workload/netlist.h"

namespace cong93 {
namespace {

CliOptions parse(std::initializer_list<const char*> args)
{
    return parse_cli(std::vector<std::string>(args.begin(), args.end()));
}

/// The netlist text `gen` prints for these arguments.
std::string gen_text(std::initializer_list<const char*> args)
{
    std::vector<std::string> v{"gen"};
    v.insert(v.end(), args.begin(), args.end());
    std::ostringstream out;
    EXPECT_EQ(run_cli(parse_cli(v), out), 0);
    return out.str();
}

std::string read_file(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(CliParse, Defaults)
{
    const CliOptions o = parse({"route"});
    EXPECT_EQ(o.command, "route");
    EXPECT_EQ(o.algo, "atree");
    EXPECT_EQ(o.tech, "mcm");
    EXPECT_EQ(o.random_count, 10);
    EXPECT_EQ(o.sinks, 8);
    EXPECT_DOUBLE_EQ(o.threshold, 0.5);
    EXPECT_FALSE(o.rlc);
}

TEST(CliParse, AllFlags)
{
    const CliOptions o = parse({"flow", "--random", "3", "--sinks", "5", "--grid",
                                "100", "--seed", "7", "--algo", "steiner", "--tech",
                                "cmos05", "--driver-scale", "4", "--widths", "3",
                                "--sizer", "owsa", "--method", "transient",
                                "--threshold", "0.9", "--rlc", "--out", "x.txt"});
    EXPECT_EQ(o.command, "flow");
    EXPECT_EQ(o.random_count, 3);
    EXPECT_EQ(o.sinks, 5);
    EXPECT_EQ(o.grid, 100);
    EXPECT_EQ(o.seed, 7u);
    EXPECT_EQ(o.algo, "steiner");
    EXPECT_EQ(o.tech, "cmos05");
    EXPECT_DOUBLE_EQ(o.driver_scale, 4.0);
    EXPECT_EQ(o.widths, 3);
    EXPECT_EQ(o.sizer, "owsa");
    EXPECT_EQ(o.method, "transient");
    EXPECT_DOUBLE_EQ(o.threshold, 0.9);
    EXPECT_TRUE(o.rlc);
    EXPECT_EQ(o.out_path, "x.txt");
}

TEST(CliParse, Errors)
{
    EXPECT_THROW(parse({}), std::invalid_argument);
    EXPECT_THROW(parse({"bogus"}), std::invalid_argument);
    EXPECT_THROW(parse({"route", "--unknown"}), std::invalid_argument);
    // A retired flag is an unknown flag like any other.
    EXPECT_THROW(parse({"serve", "--shards", "4"}), std::invalid_argument);
    EXPECT_THROW(parse({"session", "--eco-threshold", "0.5"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"route", "--sinks"}), std::invalid_argument);
    EXPECT_THROW(parse({"route", "--sinks", "abc"}), std::invalid_argument);
    EXPECT_THROW(parse({"route", "--sinks", "0"}), std::invalid_argument);
    EXPECT_THROW(parse({"route", "--threshold", "1.5"}), std::invalid_argument);
    EXPECT_THROW(parse({"route", "--driver-scale", "-1"}), std::invalid_argument);
    EXPECT_THROW(parse({"--help"}), std::invalid_argument);  // usage via throw
}

TEST(CliParse, MalformedNumericsRejectPerFlag)
{
    // Every numeric lifecycle/capacity flag rejects garbage and (for the
    // unsigned ones) negative values instead of truncating them silently.
    EXPECT_THROW(parse({"serve", "--sessions=abc"}), std::invalid_argument);
    EXPECT_THROW(parse({"session", "--cache-capacity", "-5"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"batch", "--max-nodes", "-1"}), std::invalid_argument);
    EXPECT_THROW(parse({"batch", "--seed", "-2"}), std::invalid_argument);
    EXPECT_THROW(parse({"serve", "--queue-cap", "-1"}), std::invalid_argument);
    EXPECT_THROW(parse({"serve", "--queue-cap=x"}), std::invalid_argument);
    EXPECT_THROW(parse({"serve", "--memory-budget", "-1"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"batch", "--deadline-ms", "-0.5"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"batch", "--deadline-ms", "abc"}),
                 std::invalid_argument);
    EXPECT_THROW(parse({"batch", "--threads", "2x"}), std::invalid_argument);

    // An int knob outside int's range is rejected, not wrapped: 2^32 + 1
    // would cast to 1 width and 2^32 + 2 to 2 threads.
    for (const char* v : {"4294967297", "-4294967297", "2147483648"}) {
        EXPECT_THROW(parse({"flow", "--widths", v}), std::invalid_argument) << v;
        EXPECT_THROW(parse({"batch", "--threads", v}), std::invalid_argument) << v;
    }
    try {
        parse({"batch", "--threads", "4294967298"});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("bad integer for --threads"),
                  std::string::npos);
    }
    EXPECT_EQ(parse({"batch", "--threads", "2147483647"}).threads, 2147483647);

    // The rejection message carries the usage text so a CLI user sees the
    // expected spelling without a second invocation.
    try {
        parse({"serve", "--sessions=abc"});
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("usage:"), std::string::npos);
    }
}

TEST(CliParse, EqualsSpellingAndLifecycleFlags)
{
    const CliOptions o =
        parse({"serve", "--queue-cap=3", "--memory-budget=65536",
               "--deadline-ms=2.5", "--sessions=5"});
    EXPECT_EQ(o.queue_cap, 3u);
    EXPECT_EQ(o.memory_budget, 65536u);
    EXPECT_DOUBLE_EQ(o.deadline_ms, 2.5);
    EXPECT_EQ(o.sessions, 5);

    // Both spellings parse identically.
    const CliOptions spaced =
        parse({"serve", "--queue-cap", "3", "--memory-budget", "65536",
               "--deadline-ms", "2.5", "--sessions", "5"});
    EXPECT_EQ(spaced.queue_cap, o.queue_cap);
    EXPECT_EQ(spaced.memory_budget, o.memory_budget);
    EXPECT_DOUBLE_EQ(spaced.deadline_ms, o.deadline_ms);

    // Defaults: lifecycle machinery entirely off.
    const CliOptions d = parse({"batch"});
    EXPECT_EQ(d.queue_cap, 0u);
    EXPECT_EQ(d.memory_budget, 0u);
    EXPECT_DOUBLE_EQ(d.deadline_ms, 0.0);
}

TEST(CliRun, BatchAdmitCapAndVirtualDeadline)
{
    // Admission cap: the tail of the batch is rejected, deterministically.
    CliOptions capped = parse({"batch", "--random", "6", "--sinks", "4",
                               "--queue-cap", "2"});
    std::ostringstream out;
    EXPECT_EQ(run_cli(capped, out), 0);
    EXPECT_NE(out.str().find("rejected 4"), std::string::npos);
    EXPECT_NE(out.str().find("rejected_overload"), std::string::npos);

    // Virtual-clock deadline: every net degrades, output is deterministic.
    CliOptions vclock = parse({"batch", "--random", "4", "--sinks", "4",
                               "--fault-inject",
                               "seed=5,vdeadline=10,vcost-wiresize=20"});
    std::ostringstream a, b;
    EXPECT_EQ(run_cli(vclock, a), 0);
    vclock.threads = 4;
    EXPECT_EQ(run_cli(vclock, b), 0);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("deadline_degraded 4"), std::string::npos);
}

TEST(CliRun, GenProducesParsableNets)
{
    const NetlistDesign design =
        parse_netlist(gen_text({"--random", "4", "--sinks", "3", "--grid", "50"}));
    ASSERT_EQ(design.items.size(), 4u);
    for (const WorkItem& item : design.items) {
        EXPECT_TRUE(item.meta.parse_error.empty()) << item.meta.parse_error;
        EXPECT_EQ(item.net.sinks.size(), 3u);
    }
}

TEST(CliRun, GenStdoutEqualsGenOutFile)
{
    const std::string path = testing::TempDir() + "/cong93_cli_gen.nets";
    CliOptions o = parse({"gen", "--random", "7", "--sinks", "5", "--seed", "3",
                          "--out", path.c_str()});
    std::ostringstream out;
    ASSERT_EQ(run_cli(o, out), 0);
    EXPECT_EQ(out.str(), "wrote 7 nets to " + path + "\n");
    EXPECT_EQ(read_file(path), gen_text({"--random", "7", "--sinks", "5", "--seed", "3"}));
}

TEST(CliRun, GenOutFailuresPrintNothing)
{
    // An unwritable path fails before any output; so does a failed write
    // (/dev/full opens, then every write fails).
    for (const char* path : {"/nonexistent-dir/x.nets", "/dev/full"}) {
        if (std::string(path) == "/dev/full" && !std::ofstream(path)) continue;
        CliOptions o = parse({"gen", "--random", "3", "--out", path});
        std::ostringstream out;
        EXPECT_THROW(run_cli(o, out), std::invalid_argument) << path;
        EXPECT_EQ(out.str(), "") << path;
    }
}

TEST(CliRun, RouteGeneratedNets)
{
    CliOptions o = parse({"route", "--random", "3", "--sinks", "4", "--seed", "9"});
    std::ostringstream out;
    EXPECT_EQ(run_cli(o, out), 0);
    EXPECT_NE(out.str().find("mean delay"), std::string::npos);
    // Three data rows.
    EXPECT_NE(out.str().find(" 2 |"), std::string::npos);
}

TEST(CliRun, RouteFromNetText)
{
    const std::string nets = gen_text({"--random", "2", "--sinks", "4", "--grid", "200",
                                       "--seed", "3"});
    CliOptions o = parse({"route", "--in", "ignored.txt", "--algo", "mst"});
    std::ostringstream out;
    EXPECT_EQ(run_cli(o, out, &nets), 0);
    EXPECT_NE(out.str().find(" 1 |"), std::string::npos);
}

TEST(CliRun, RouteAndFlowFromGenOutputMatchRandom)
{
    // The netlist gen prints routes to exactly the bytes of the --random run.
    const std::string nets = gen_text({"--random", "5", "--sinks", "8", "--seed", "4"});
    for (const char* cmd : {"route", "flow"}) {
        std::ostringstream from_text, from_random;
        ASSERT_EQ(run_cli(parse({cmd, "--in", "x"}), from_text, &nets), 0) << cmd;
        ASSERT_EQ(run_cli(parse({cmd, "--random", "5", "--sinks", "8", "--seed", "4"}),
                          from_random),
                  0)
            << cmd;
        EXPECT_EQ(from_text.str(), from_random.str()) << cmd;
    }
}

TEST(CliRun, RouteReadsTheBundledDesign)
{
    CliOptions o = parse({"route"});
    o.input_path = std::string(CONG93_EXAMPLES_DIR) + "/chip_small.nets";
    std::ostringstream out;
    EXPECT_EQ(run_cli(o, out), 0);
    EXPECT_NE(out.str().find(" 7 |"), std::string::npos);  // eight nets routed
}

TEST(CliRun, NetCommandsRejectTextWithoutTheMagicLine)
{
    // The `net / source / sink / end` list without a netlist header is a
    // header error for every command that takes nets.
    const std::string legacy = "net\nsource 0 0\nsink 5 5\nend\n";
    for (const char* cmd : {"route", "flow", "batch", "chip"}) {
        CliOptions o = parse({cmd, "--in", "x"});
        std::ostringstream out;
        try {
            run_cli(o, out, &legacy);
            ADD_FAILURE() << cmd << " accepted text without the magic line";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find("missing magic line"), std::string::npos)
                << cmd << ": " << e.what();
        }
        EXPECT_EQ(out.str(), "") << cmd;
    }
}

TEST(CliRun, RouteAndFlowRejectEmptyInput)
{
    // An input without nets has no aggregate to report.
    const std::string empty = "# cong93 netlist v1\ndesign empty 0\n";
    for (const char* cmd : {"route", "flow"}) {
        CliOptions o = parse({cmd, "--in", "x"});
        std::ostringstream out;
        EXPECT_THROW(run_cli(o, out, &empty), std::invalid_argument) << cmd;
    }
}

TEST(CliRun, RouteAndFlowRejectInvalidNets)
{
    // sink.x - source.x overflows int32 in net `far`; validate_net rejects
    // it (as batch does), so route and flow name it instead of routing it.
    // A block the reader rejects is named the same way.
    const std::string far =
        "# cong93 netlist v1\ndesign d 2\n"
        "net ok 2\nsource 0 0\nsink 5 5\nend\n"
        "net far 2\nsource -2000000000 0\nsink 2000000000 7\nend\n";
    const std::string bad_pin =
        "# cong93 netlist v1\ndesign d 2\n"
        "net ok 2\nsource 0 0\nsink 5 5\nend\n"
        "net bad 2\nsource 0 0\nsink 1.5 7\nend\n";
    for (const char* cmd : {"route", "flow"}) {
        for (const auto& [text, prefix] :
             {std::pair{far, "net 1 'far': "}, std::pair{bad_pin, "net 1 'bad': "}}) {
            CliOptions o = parse({cmd, "--in", "x"});
            std::ostringstream out;
            try {
                run_cli(o, out, &text);
                ADD_FAILURE() << cmd << " routed an invalid net";
            } catch (const std::invalid_argument& e) {
                EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u) << e.what();
            }
            EXPECT_EQ(out.str(), "") << cmd;
        }
    }
}

TEST(CliRun, FlowReportsGain)
{
    CliOptions o = parse({"flow", "--random", "2", "--sinks", "6", "--widths", "3"});
    std::ostringstream out;
    EXPECT_EQ(run_cli(o, out), 0);
    EXPECT_NE(out.str().find("aggregate:"), std::string::npos);
    EXPECT_NE(out.str().find("wiresized delay"), std::string::npos);
}

TEST(CliRun, FlowSizers)
{
    for (const char* sizer : {"combined", "owsa", "grewsa", "bottomup"}) {
        CliOptions o = parse({"flow", "--random", "1", "--sinks", "4", "--sizer",
                              sizer});
        std::ostringstream out;
        EXPECT_EQ(run_cli(o, out), 0) << sizer;
    }
    CliOptions bad = parse({"flow", "--random", "1", "--sizer", "nope"});
    std::ostringstream out;
    EXPECT_THROW(run_cli(bad, out), std::invalid_argument);
}

TEST(CliRun, RouteDumpThenSimulate)
{
    // Full round trip: route generated nets to a tree dump, then simulate it.
    const std::string nets_text =
        gen_text({"--random", "2", "--sinks", "4", "--grid", "300", "--seed", "4"});
    const std::string dump_path =
        testing::TempDir() + "/cong93_cli_trees.txt";
    {
        std::ostringstream tmp;
        CliOptions route =
            parse({"route", "--in", "x", "--out", dump_path.c_str()});
        ASSERT_EQ(run_cli(route, tmp, &nets_text), 0);
    }
    std::ifstream in(dump_path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string trees = buf.str();
    EXPECT_NE(trees.find("tree"), std::string::npos);

    CliOptions sim = parse({"simulate", "--in", "x"});
    std::ostringstream out;
    EXPECT_EQ(run_cli(sim, out, &trees), 0);
    EXPECT_NE(out.str().find("mean delay"), std::string::npos);
    EXPECT_NE(out.str().find(" 1 |"), std::string::npos);  // two trees simulated
}

TEST(CliRun, SimulateRequiresInput)
{
    CliOptions o = parse({"simulate"});
    std::ostringstream out;
    EXPECT_THROW(run_cli(o, out), std::invalid_argument);
}

TEST(CliRun, SessionScriptReplay)
{
    const std::string script =
        "# ECO smoke\n"
        "gen 4 6 9\n"
        "net 2000 2000 100 100 3900 3900\n"
        "move 4 0 250 175\n"
        "add 4 3500 200 2e-12\n"
        "remove 4 0\n"
        "retech 4 mcm 2\n"
        "route 4\n"
        "print\n";
    CliOptions o = parse({"session", "--in", "unused"});
    std::ostringstream with_cache;
    ASSERT_EQ(run_cli(o, with_cache, &script), 0);
    EXPECT_NE(with_cache.str().find("eco 4 move"), std::string::npos);

    // Cache on/off and thread counts never change the replayed output.
    CliOptions nocache =
        parse({"session", "--in", "unused", "--no-cache", "--threads", "4"});
    std::ostringstream without;
    ASSERT_EQ(run_cli(nocache, without, &script), 0);
    EXPECT_EQ(with_cache.str(), without.str());

    // stats lines are the one cache-dependent output, kept off the diff.
    const std::string stats_script = "gen 2 5 9\ngen 2 5 9\nstats\n";
    std::ostringstream stats_out;
    ASSERT_EQ(run_cli(o, stats_out, &stats_script), 0);
    EXPECT_NE(stats_out.str().find("hits 2"), std::string::npos);

    const std::string bad = "move 99 0 1 1\n";
    std::ostringstream err;
    EXPECT_THROW(run_cli(o, err, &bad), std::invalid_argument);
    CliOptions no_in = parse({"session"});
    EXPECT_THROW(run_cli(no_in, err), std::invalid_argument);
}

TEST(CliRun, SessionEcoLinesEqualFullReroute)
{
    // Every ECO is one route that must equal a full re-route: each `eco`
    // result line of the CI session script is compared with route_single
    // of the mutated net under the same request index.
    const std::string script =
        "gen 32 8 29\n"
        "gen 32 8 29\n"
        "net 2000 2000 100 100 3900 3900 150 3800\n"
        "move 64 0 250 175\n"
        "add 64 3500 200 2e-12\n"
        "add 64 1200 900\n"
        "remove 64 1\n"
        "retech 64 cmos20 4\n"
        "move 3 2 1800 2200\n";
    const CliOptions o = parse({"session", "--in", "unused"});
    std::ostringstream out;
    ASSERT_EQ(run_cli(o, out, &script), 0);
    std::vector<std::string> got;
    std::istringstream is(out.str());
    for (std::string line; std::getline(is, line);)
        if (line.rfind("eco ", 0) == 0 && std::getline(is, line))
            got.push_back(line);

    // The session's nets: two batches of the same generated nets (ids
    // 0..63), then the explicit net 64.
    const std::vector<Net> gen = random_nets(29, 32, o.grid, 8);
    std::vector<Net> nets = gen;
    nets.insert(nets.end(), gen.begin(), gen.end());
    Net explicit_net;
    explicit_net.source = Point{2000, 2000};
    explicit_net.sinks = {Point{100, 100}, Point{3900, 3900}, Point{150, 3800}};
    nets.push_back(explicit_net);
    std::vector<Technology> techs(nets.size(), mcm_technology());
    const struct {
        std::size_t id;
        EcoDelta delta;
    } edits[] = {
        {64, EcoDelta::make_move(0, Point{250, 175})},
        {64, EcoDelta::make_add(Point{3500, 200}, 2e-12)},
        {64, EcoDelta::make_add(Point{1200, 900})},
        {64, EcoDelta::make_remove(1)},
        {64, EcoDelta::make_retech(cmos_2000nm().with_driver_scale(4.0))},
        {3, EcoDelta::make_move(2, Point{1800, 2200})},
    };
    std::vector<std::string> want;
    Workspace ws;
    std::size_t request = 1;  // request 0 admitted net 64
    for (const auto& e : edits) {
        apply_delta(nets[e.id], techs[e.id], e.delta);
        std::string line = format_results(std::vector<NetRouteResult>{route_single(
            nets[e.id], request++, 0, techs[e.id], PipelineOptions{}, ws)});
        line.pop_back();  // the trailing newline
        want.push_back(std::to_string(e.id) + line.substr(line.find(' ')));
    }
    EXPECT_EQ(got, want);
}

TEST(CliRun, AllAlgorithmsRoute)
{
    for (const char* algo : {"atree", "steiner", "mst", "spt", "brbc05", "brbc10"}) {
        CliOptions o = parse({"route", "--random", "1", "--sinks", "5", "--algo",
                              algo});
        std::ostringstream out;
        EXPECT_EQ(run_cli(o, out), 0) << algo;
    }
}

TEST(CliRun, AllTechnologies)
{
    for (const char* tech : {"mcm", "cmos20", "cmos15", "cmos12", "cmos05"}) {
        CliOptions o = parse({"route", "--random", "1", "--sinks", "4", "--tech",
                              tech, "--driver-scale", "4"});
        std::ostringstream out;
        EXPECT_EQ(run_cli(o, out), 0) << tech;
    }
    CliOptions bad = parse({"route", "--random", "1", "--tech", "ttl"});
    std::ostringstream out;
    EXPECT_THROW(run_cli(bad, out), std::invalid_argument);
}

}  // namespace
}  // namespace cong93
