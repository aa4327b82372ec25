/**
 * @file
 * Tests for the campaign runner (src/driver): grid enumeration,
 * per-cell seed derivation, the deterministic JSON emitter, and the
 * headline property — the merged campaign report is byte-identical
 * regardless of thread count — plus the GUPS cells of the checked-in
 * BENCH_campaign.json as a reference for every design's loop.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "driver/campaign.hh"
#include "driver/json.hh"

using namespace dmt;
using namespace dmt::driver;

namespace
{

TEST(JsonWriter, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, DoubleFormatRoundTripsAndStaysNumeric)
{
    EXPECT_EQ(JsonWriter::formatDouble(0.0), "0.0");
    EXPECT_EQ(JsonWriter::formatDouble(1.0), "1.0");
    EXPECT_EQ(JsonWriter::formatDouble(0.1), "0.1");
    EXPECT_EQ(JsonWriter::formatDouble(1.0 / 3.0),
              JsonWriter::formatDouble(1.0 / 3.0));
    // Round-trip: parsing the emitted text recovers the exact bits.
    const double v = 152.57520972881576;
    EXPECT_EQ(std::stod(JsonWriter::formatDouble(v)), v);
}

TEST(JsonWriter, EmitsStableDocumentStructure)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("name", "x");
    json.key("list");
    json.beginArray();
    json.value(std::uint64_t{1});
    json.value(2.5);
    json.value(true);
    json.endArray();
    json.endObject();
    EXPECT_EQ(os.str(),
              "{\n  \"name\": \"x\",\n  \"list\": [\n    1,\n"
              "    2.5,\n    true\n  ]\n}\n");
}

TEST(Campaign, CellSeedsAreStableAndDistinct)
{
    const CellSpec a{"GUPS", CampaignEnv::Native, Design::Vanilla,
                     false};
    EXPECT_EQ(cellSeed(42, a), cellSeed(42, a));

    std::set<std::uint64_t> seeds;
    for (const auto &wl : {"GUPS", "Redis"}) {
        for (const CampaignEnv env :
             {CampaignEnv::Native, CampaignEnv::Virt}) {
            for (const Design d : {Design::Vanilla, Design::Dmt}) {
                for (const bool thp : {false, true})
                    seeds.insert(cellSeed(42, {wl, env, d, thp}));
            }
        }
    }
    EXPECT_EQ(seeds.size(), 16u);
    EXPECT_NE(cellSeed(42, a), cellSeed(43, a));
}

TEST(Campaign, EnumerationIsSortedAndFiltersInvalidDesigns)
{
    CampaignConfig cfg;
    cfg.workloads = {"Redis", "GUPS"};  // unsorted on purpose
    cfg.envs = {CampaignEnv::Nested};
    const auto cells = enumerateCells(cfg);
    // Nested models only vanilla and pvDMT.
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].workload, "GUPS");
    EXPECT_EQ(cells[0].design, Design::Vanilla);
    EXPECT_EQ(cells[1].design, Design::PvDmt);
    EXPECT_EQ(cells[2].workload, "Redis");

    // An explicit design list is filtered per environment.
    cfg.designs = {Design::Ecpt, Design::PvDmt};
    const auto filtered = enumerateCells(cfg);
    ASSERT_EQ(filtered.size(), 2u);
    EXPECT_EQ(filtered[0].design, Design::PvDmt);
}

TEST(Campaign, DesignAndEnvTokensRoundTrip)
{
    for (const Design d : {Design::Vanilla, Design::Shadow,
                           Design::Fpt, Design::Ecpt, Design::Agile,
                           Design::Asap, Design::Dmt, Design::PvDmt})
        EXPECT_EQ(parseDesign(designId(d)), d);
    for (const CampaignEnv e : {CampaignEnv::Native, CampaignEnv::Virt,
                                CampaignEnv::Nested})
        EXPECT_EQ(parseEnv(envId(e)), e);
}

/** The tentpole property: thread count never changes the report. */
TEST(Campaign, ReportIsByteIdenticalAcrossThreadCounts)
{
    CampaignConfig cfg;
    cfg.workloads = {"GUPS", "BTree"};
    cfg.envs = {CampaignEnv::Native};
    cfg.designs = {Design::Vanilla, Design::Dmt};
    cfg.scale = 1.0 / 512.0;
    cfg.sim.warmupAccesses = 1'000;
    cfg.sim.measureAccesses = 5'000;

    const auto one = runCampaign(cfg, 1);
    const auto four = runCampaign(cfg, 4);
    ASSERT_EQ(one.size(), 4u);
    ASSERT_EQ(four.size(), one.size());

    std::ostringstream a, b;
    emitCampaignJson(a, cfg, one);
    emitCampaignJson(b, cfg, four);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("\"schema\": \"dmt-campaign-v1\""),
              std::string::npos);
    EXPECT_NE(a.str().find("\"aggregates\""), std::string::npos);
}

TEST(Campaign, TimingSidecarIsSeparateFromReport)
{
    CampaignConfig cfg;
    cfg.workloads = {"GUPS"};
    cfg.envs = {CampaignEnv::Native};
    cfg.designs = {Design::Vanilla};
    cfg.scale = 1.0 / 512.0;
    cfg.sim.warmupAccesses = 500;
    cfg.sim.measureAccesses = 2'000;

    const auto results = runCampaign(cfg, 2);
    std::ostringstream report, timing;
    emitCampaignJson(report, cfg, results);
    emitTimingJson(timing, cfg, results, 2, 1.0);

    // Wall-clock numbers live only in the sidecar.
    EXPECT_EQ(report.str().find("wall_seconds"), std::string::npos);
    EXPECT_NE(timing.str().find("wall_seconds"), std::string::npos);
    EXPECT_NE(timing.str().find("dmt-campaign-timing-v1"),
              std::string::npos);
}

/** One report cell: field name -> the value text as emitted. */
using CellFields = std::map<std::string, std::string>;

/**
 * Add one emitted line to `cell` if it is a `"key": value` field.
 * The emitter writes one field per line, so a line scan recovers
 * every value's exact text.
 */
void
addField(const std::string &text, CellFields &cell)
{
    const auto sep = text.find("\": ");
    if (text.empty() || text[0] != '"' || sep == std::string::npos)
        return;
    std::string value = text.substr(sep + 3);
    if (!value.empty() && value.back() == ',')
        value.pop_back();
    cell[text.substr(1, sep - 1)] = value;
}

/** `line` without its indentation. */
std::string
trimmed(const std::string &line)
{
    const auto first = line.find_first_not_of(' ');
    return first == std::string::npos ? "" : line.substr(first);
}

/** The cells of a dmt-campaign-v1 report, in order. */
std::vector<CellFields>
reportCells(std::istream &in)
{
    std::vector<CellFields> cells;
    bool inCells = false;
    std::string line;
    while (std::getline(in, line)) {
        const std::string text = trimmed(line);
        if (!inCells) {
            inCells = text == "\"cells\": [";
            continue;
        }
        if (text[0] == ']')
            break;
        if (text[0] == '{')
            cells.emplace_back();
        else if (!cells.empty())
            addField(text, cells.back());
    }
    return cells;
}

/** The fields of one emitted cell object (`dmtsim --json`). */
CellFields
cellObject(std::istream &in)
{
    CellFields cell;
    std::string line;
    while (std::getline(in, line))
        addField(trimmed(line), cell);
    return cell;
}

/**
 * Every GUPS cell of the checked-in campaign (all 15 env x design
 * pairs, THP off and on) rerun at the report's own config must
 * reproduce its cell field for field. The golden stats and event
 * digests pin only native vanilla/DMT; this covers the generic
 * virtual-dispatch loop every virt and nested design runs.
 */
TEST(CampaignReference, GupsCellsMatchCheckedInReport)
{
    std::ifstream ref(DMT_CAMPAIGN_REFERENCE);
    ASSERT_TRUE(ref) << "cannot open " << DMT_CAMPAIGN_REFERENCE;
    const auto refCells = reportCells(ref);

    CampaignConfig cfg;  // BENCH_campaign.json's config block
    cfg.workloads = {"GUPS"};
    cfg.includeThp = true;
    cfg.scale = 1.0 / 256.0;
    cfg.baseSeed = 42;
    cfg.sim.warmupAccesses = 10'000;
    cfg.sim.measureAccesses = 50'000;
    std::ostringstream report;
    emitCampaignJson(report, cfg, runCampaign(cfg, 1));
    std::istringstream rerun(report.str());
    const auto cells = reportCells(rerun);
    ASSERT_EQ(cells.size(), 30u);

    using Key = std::tuple<std::string, std::string, std::string,
                           std::string>;
    auto keyOf = [](const CellFields &c) {
        return Key{c.at("env"), c.at("workload"), c.at("design"),
                   c.at("thp")};
    };
    std::map<Key, const CellFields *> byKey;
    for (const auto &c : refCells)
        byKey[keyOf(c)] = &c;
    for (const auto &cell : cells) {
        const auto it = byKey.find(keyOf(cell));
        ASSERT_NE(it, byKey.end())
            << "no reference cell for " << cell.at("env") << "/"
            << cell.at("design") << " thp=" << cell.at("thp");
        EXPECT_EQ(cell.size(), it->second->size());
        for (const auto &[field, value] : cell) {
            const auto ref_it = it->second->find(field);
            ASSERT_NE(ref_it, it->second->end()) << field;
            EXPECT_EQ(value, ref_it->second)
                << cell.at("env") << "/" << cell.at("design")
                << " thp=" << cell.at("thp") << ": " << field;
        }
    }
}

/**
 * Run the driver binary `bin` with `args` in place of this process.
 * Only ever called inside a death test's child.
 */
[[noreturn]] void
execBinary(const char *bin, std::vector<const char *> args)
{
    args.insert(args.begin(), bin);
    args.push_back(nullptr);
    ::execv(bin, const_cast<char *const *>(args.data()));
    ::_exit(127);  // exec failed: not the usage exit the tests expect
}

/**
 * Run the binary `bin` with `args` to completion, its stdout
 * discarded. @return its exit status, or -1 if it did not exit.
 */
int
runBinary(const char *bin, std::vector<const char *> args)
{
    args.insert(args.begin(), bin);
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     "/dev/null", O_WRONLY, 0);
    pid_t pid = 0;
    const int err =
        ::posix_spawn(&pid, bin, &actions, nullptr,
                      const_cast<char *const *>(args.data()), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (err != 0)
        return -1;
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/**
 * dmtsim builds its cell through the same driver::Cell as the
 * campaign, so one GUPS cell per environment (THP on for one), run at
 * the checked-in report's config and the cell's recorded seed,
 * reproduces that report entry field for field in `dmtsim --json`.
 * The virt Memcached pvDMT cell is the one whose setup relocates the
 * most TEA tables (about 800 migrations), so it pins the frame copy,
 * reverse-map and free-list paths that GUPS barely exercises.
 */
TEST(CampaignReference, DmtsimReproducesCheckedInCells)
{
    std::ifstream ref(DMT_CAMPAIGN_REFERENCE);
    ASSERT_TRUE(ref) << "cannot open " << DMT_CAMPAIGN_REFERENCE;
    const auto refCells = reportCells(ref);

    const std::vector<
        std::tuple<std::string, std::string, std::string, bool>>
        picks = {{"native", "GUPS", "dmt", false},
                 {"virt", "GUPS", "pvdmt", true},
                 {"nested", "GUPS", "pvdmt", false},
                 {"virt", "Memcached", "pvdmt", false}};
    for (const auto &[env, workload, design, thp] : picks) {
        const std::string tag = env + "/" + workload + "/" + design +
                                (thp ? "/thp" : "/4k");
        const CellFields *want = nullptr;
        for (const auto &c : refCells) {
            if (c.at("env") == '"' + env + '"' &&
                c.at("workload") == '"' + workload + '"' &&
                c.at("design") == '"' + design + '"' &&
                c.at("thp") == (thp ? "true" : "false"))
                want = &c;
        }
        ASSERT_NE(want, nullptr) << "no reference cell for " << tag;

        const std::string path = ::testing::TempDir() + "dmtsim_" +
                                 env + "_" + workload + "_" + design +
                                 ".json";
        std::vector<const char *> args = {
            "--workload", workload.c_str(),
            "--env",      env.c_str(),
            "--design",   design.c_str(),
            "--scale",    "256",
            "--warmup",   "10000",
            "--accesses", "50000",
            "--seed",     want->at("seed").c_str(),
            "--json",     path.c_str()};
        if (thp)
            args.push_back("--thp");
        ASSERT_EQ(runBinary(DMTSIM_BIN, args), 0) << tag;

        std::ifstream in(path);
        ASSERT_TRUE(in) << "cannot open " << path;
        const CellFields got = cellObject(in);
        EXPECT_EQ(got.size(), want->size()) << tag;
        for (const auto &[field, value] : *want) {
            const auto it = got.find(field);
            ASSERT_NE(it, got.end()) << tag << ": no " << field;
            EXPECT_EQ(it->second, value) << tag << ": " << field;
        }
    }
}

[[noreturn]] void
execCampaign(std::vector<const char *> args)
{
    execBinary(DMT_CAMPAIGN_BIN, std::move(args));
}

// --list would otherwise print the grid and exit 0, so a flag that
// slipped through shows up as the wrong exit code, not a long run.
TEST(CampaignCliDeathTest, ZeroThreadsIsAUsageError)
{
    EXPECT_EXIT(execCampaign({"--threads", "0", "--list"}),
                ::testing::ExitedWithCode(2),
                "--threads must be at least 1");
}

TEST(CampaignCliDeathTest, ZeroScaleIsAUsageError)
{
    EXPECT_EXIT(execCampaign({"--scale", "0", "--list"}),
                ::testing::ExitedWithCode(2),
                "--scale must be a positive number");
    EXPECT_EXIT(execCampaign({"--scale", "-4", "--list"}),
                ::testing::ExitedWithCode(2),
                "--scale must be a positive number");
}

TEST(CampaignCliDeathTest, ValidGridSizesStillList)
{
    EXPECT_EXIT(execCampaign({"--threads", "1", "--scale", "256",
                              "--list"}),
                ::testing::ExitedWithCode(0), "");
}

TEST(DriverCliDeathTest, ZeroScaleIsAUsageError)
{
    EXPECT_EXIT(execBinary(DMTSIM_BIN, {"--scale", "0"}),
                ::testing::ExitedWithCode(2),
                "--scale must be a positive number");
    EXPECT_EXIT(execBinary(DMT_NODE_BIN, {"--scale", "0"}),
                ::testing::ExitedWithCode(2),
                "--scale must be a positive number");
}

TEST(DriverCliDeathTest, PartialOrNegativeCountIsAUsageError)
{
    // A prefix parse would run 12 accesses; a wrapped one 2^64 - 5.
    EXPECT_EXIT(execBinary(DMTSIM_BIN, {"--accesses", "12abc"}),
                ::testing::ExitedWithCode(2),
                "--accesses expects an unsigned integer, got '12abc'");
    EXPECT_EXIT(execBinary(DMTSIM_BIN, {"--accesses", "-5"}),
                ::testing::ExitedWithCode(2),
                "--accesses expects an unsigned integer, got '-5'");
}

TEST(DriverCliDeathTest, BatchIsAnUnknownFlag)
{
    EXPECT_EXIT(execBinary(DMTSIM_BIN, {"--batch", "1"}),
                ::testing::ExitedWithCode(2), "");
    EXPECT_EXIT(execCampaign({"--batch", "1", "--list"}),
                ::testing::ExitedWithCode(2), "");
    EXPECT_EXIT(execBinary(DMT_NODE_BIN, {"--batch", "1"}),
                ::testing::ExitedWithCode(2), "");
}

TEST(DriverCliDeathTest, DesignNotModelledInEnvIsAUsageError)
{
    // Rejected while parsing, before any testbed is built.
    EXPECT_EXIT(execBinary(DMTSIM_BIN,
                           {"--env", "native", "--design", "agile"}),
                ::testing::ExitedWithCode(2),
                "--design 'agile' is not modelled in --env native");
    EXPECT_EXIT(execBinary(DMTSIM_BIN,
                           {"--env", "native", "--design", "pvdmt"}),
                ::testing::ExitedWithCode(2),
                "--design 'pvdmt' is not modelled in --env native");
    EXPECT_EXIT(execBinary(DMTSIM_BIN,
                           {"--env", "nested", "--design", "dmt"}),
                ::testing::ExitedWithCode(2),
                "--design 'dmt' is not modelled in --env nested");
    EXPECT_EXIT(execBinary(DMTSIM_BIN, {"--env", "cloud"}),
                ::testing::ExitedWithCode(2),
                "--env expects native\\|virt\\|nested, got 'cloud'");
    EXPECT_EXIT(execBinary(DMT_NODE_BIN,
                           {"--env", "nested", "--design", "dmt"}),
                ::testing::ExitedWithCode(2),
                "--design 'dmt' is not modelled in --env nested");
}

TEST(DriverCliDeathTest, MicrobenchCountsAreChecked)
{
    // A prefix parse would run 12 ops; the old clamps ran 1.
    EXPECT_EXIT(execBinary(DMT_MICROBENCH_BIN, {"--ops", "12abc"}),
                ::testing::ExitedWithCode(2),
                "--ops expects an unsigned integer, got '12abc'");
    EXPECT_EXIT(execBinary(DMT_MICROBENCH_BIN, {"--ops", "0"}),
                ::testing::ExitedWithCode(2),
                "--ops must be at least 20, got '0'");
    EXPECT_EXIT(execBinary(DMT_MICROBENCH_BIN, {"--reps", "-5"}),
                ::testing::ExitedWithCode(2),
                "--reps expects an unsigned integer, got '-5'");
    EXPECT_EXIT(execBinary(DMT_MICROBENCH_BIN, {"--reps", "0"}),
                ::testing::ExitedWithCode(2),
                "--reps must be at least 1, got '0'");
    EXPECT_EXIT(execBinary(DMT_MICROBENCH_BIN,
                           {"--ops", "20", "--reps", "1", "--quiet"}),
                ::testing::ExitedWithCode(0), "");
}

/** Exec a figure binary with one DMT_BENCH_* knob set. */
[[noreturn]] void
execFigureWith(const char *knob, const char *value)
{
    ::setenv(knob, value, 1);
    execBinary(FIG17_BIN, {});
}

TEST(BenchKnobDeathTest, MalformedKnobIsAUsageError)
{
    // Unchecked, scale 0 panicked in a nested walk and "abc" ran zero
    // accesses into a geometric-mean panic (both exit 134).
    EXPECT_EXIT(execFigureWith("DMT_BENCH_SCALE", "0"),
                ::testing::ExitedWithCode(2),
                "DMT_BENCH_SCALE must be a positive number, got '0'");
    EXPECT_EXIT(execFigureWith("DMT_BENCH_ACCESSES", "abc"),
                ::testing::ExitedWithCode(2),
                "DMT_BENCH_ACCESSES expects an unsigned integer, got "
                "'abc'");
    EXPECT_EXIT(execFigureWith("DMT_BENCH_ACCESSES", "0"),
                ::testing::ExitedWithCode(2),
                "DMT_BENCH_ACCESSES must be at least 1, got '0'");
    EXPECT_EXIT(execFigureWith("DMT_BENCH_WARMUP", "12abc"),
                ::testing::ExitedWithCode(2),
                "DMT_BENCH_WARMUP expects an unsigned integer, got "
                "'12abc'");
}

TEST(DriverCliDeathTest, ValidFlagsStillRun)
{
    EXPECT_EXIT(execBinary(DMTSIM_BIN,
                           {"--workload", "GUPS", "--scale", "512",
                            "--accesses", "2000", "--warmup", "500",
                            "--seed", "7", "--audit=0"}),
                ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(execBinary(DMT_NODE_BIN,
                           {"--threads", "1", "--sweep", "1",
                            "--cores", "1", "--scale", "512",
                            "--slice", "256", "--accesses", "2000",
                            "--warmup", "500", "--pinned", "2",
                            "--out", "/dev/null", "--quiet"}),
                ::testing::ExitedWithCode(0), "");
}

} // namespace
