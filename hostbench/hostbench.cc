/**
 * @file
 * dmt-hostbench — host-time probe behind hostbench/run.py.
 *
 * Reproduces driver::runCell and a host::HostNode sweep point by
 * calling the library's public functions one phase at a time, and
 * times every call:
 *
 *   sim.testbed.construct_s  Native/Virt/NestedTestbed constructor
 *   core.attach_s            attachDmt / attachPvDmt
 *   workloads.setup_s        Workload::setup
 *   sim.testbed.build_s      Testbed::build(design)
 *   workloads.trace_s        Workload::trace(seed)
 *   sim.warmup_s             SimSession::advance over the warmup
 *   sim.measure_s            SimSession::advance over the measure
 *   obs.finish_s             FileEventSink::finish (traced cells)
 *   sim.testbed.teardown_s   testbed destructor
 *   host.node.{construct,run,teardown}_s   HostNode (node point)
 *
 * First, untimed, every cell runs through the library's own drivers
 * (driver::runCell, host::runNodeSweep). Their outcomes are the
 * oracle for seeds with no recorded reference, and the run is the
 * process's warm-up: its first, cold construction is not timed.
 *
 * Then one pass runs the workload's cells once, in order, on this
 * thread. Passes repeat up to the pass boundary nearest --seconds (at
 * least two passes, or exactly --passes). The output is one JSON
 * document on stdout: the oracle outcomes, per-pass phase sums, every
 * cell's simulated counters per pass (the oracle input),
 * deterministic layer counts, the process peak RSS, and with --trace
 * the recorded spans. run.py turns it into the benchmark's result
 * line.
 */

#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/campaign.hh"
#include "driver/json.hh"
#include "host/sweep.hh"
#include "obs/event_log.hh"
#include "obs/replay.hh"
#include "sim/testbed.hh"
#include "sim/translation_sim.hh"
#include "workloads/workloads.hh"

using namespace dmt;
using driver::CampaignEnv;

namespace
{

using Clock = std::chrono::steady_clock;

/** One cell of a workload: a campaign grid point at a fixed size. */
struct CellDef
{
    std::string workload;
    CampaignEnv env = CampaignEnv::Native;
    Design design = Design::Vanilla;
    double scale = 1.0 / 64.0;
    SimConfig sim;
    /** Write a .dmtevents stream, as dmt-campaign --events-dir does. */
    bool events = false;
    /** The node point's tenant whose identity this cell builds
     *  standalone. */
    std::optional<host::TenantSpec> tenant;
};

/** A benchmark workload: its cells, and optionally a host-node point. */
struct WorkloadDef
{
    std::vector<CellDef> cells;
    bool node = false;             //!< run a HostNode point
    host::NodeSweepConfig nodeCfg; //!< the point (tenantsPerCore[0])
};

SimConfig
simLengths(std::uint64_t warmup, std::uint64_t measure)
{
    SimConfig sim;
    sim.warmupAccesses = warmup;
    sim.measureAccesses = measure;
    return sim;
}

/*
 * Workload definitions. Sizes are chosen so one pass takes several
 * seconds and a run holds several passes; the README in this
 * directory gives the reason for each cell.
 */
WorkloadDef
makeWorkloadDef(const std::string &name, bool tiny)
{
    WorkloadDef def;
    if (name == "setup") {
        // BENCH_campaign.json's config: scale 1/256, 10K + 50K.
        const SimConfig sim = simLengths(10'000, 50'000);
        const double scale = 1.0 / 256.0;
        def.cells = {
            {"Memcached", CampaignEnv::Virt, Design::PvDmt, scale, sim,
             false, {}},
        };
    } else if (name == "translate") {
        const SimConfig sim = simLengths(200'000, 2'000'000);
        const double scale = 1.0 / 64.0;
        def.cells = {
            {"GUPS", CampaignEnv::Native, Design::Vanilla, scale, sim,
             false, {}},
            {"GUPS", CampaignEnv::Native, Design::Dmt, scale, sim, false,
             {}},
            {"Redis", CampaignEnv::Virt, Design::Vanilla, scale, sim,
             false, {}},
            {"Redis", CampaignEnv::Virt, Design::PvDmt, scale, sim, false,
             {}},
            // The specialized DMT cell again, traced: the kTrace loop
            // and the event write path beside the untraced loop.
            {"GUPS", CampaignEnv::Native, Design::Dmt, scale,
             simLengths(200'000, 600'000), true, {}},
        };
        // dmt-node's default point config, at a fixed density.
        def.node = true;
        def.nodeCfg.tenantsPerCore = {4};
        def.nodeCfg.sim = simLengths(2'000, 20'000);
    } else {
        return def;
    }
    if (tiny) {
        // Self-test size: every code path, a fraction of a second.
        for (CellDef &c : def.cells) {
            c.scale = 1.0 / 1024.0;
            c.sim = simLengths(1'000, 4'000);
        }
        def.nodeCfg.tenantsPerCore = {3};
        def.nodeCfg.scale = 1.0 / 1024.0;
        def.nodeCfg.sim = simLengths(500, 2'000);
    }
    if (def.node) {
        // Every tenant's identity is also built standalone, phase by
        // phase: HostNode::run() builds tenants internally, and by
        // the node's contract each standalone result must equal its
        // tenant's.
        const host::NodeSweepConfig &cfg = def.nodeCfg;
        for (const host::TenantSpec &t :
             host::sweepTenants(cfg, cfg.tenantsPerCore[0])) {
            def.cells.push_back(
                {t.workload, t.env, t.design, cfg.scale, cfg.sim, false,
                 t});
        }
    }
    return def;
}

std::string
cellId(const CellDef &c)
{
    if (c.tenant)
        return "node/" + c.tenant->name + ".standalone";
    return driver::envId(c.env) + "/" + c.workload + "/" +
           driver::designId(c.design) + (c.events ? ".events" : "");
}

/** Records timed spans around calls into the library's layers. */
class Recorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;  //!< seconds since process start
        double end = 0.0;
        int parent = -1;     //!< index into spans(), -1 = root
        std::string scope;   //!< cell or tenant id
    };

    /** Start a pass: clear the per-pass sums; keep spans if asked. */
    void
    beginPass(bool keep)
    {
        keep_ = keep;
        sums_.clear();
    }

    void setScope(const std::string &scope) { scope_ = scope; }

    /** Time f() as one span of `name`. */
    template <class F>
    void
    time(const char *name, F &&f)
    {
        const int parent = current_;
        int self = -1;
        const double t0 = now();
        if (keep_) {
            self = static_cast<int>(spans_.size());
            spans_.push_back({name, t0, t0, parent, scope_});
            current_ = self;
        }
        f();
        const double t1 = now();
        sums_[name] += t1 - t0;
        if (keep_) {
            spans_[static_cast<std::size_t>(self)].end = t1;
            current_ = parent;
        }
    }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    const std::map<std::string, double> &sums() const { return sums_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point origin_ = Clock::now();
    std::map<std::string, double> sums_;
    std::vector<Span> spans_;
    std::string scope_;
    int current_ = -1;
    bool keep_ = false;
};

/** Every simulated number one cell (or tenant) produced. */
struct CellRecord
{
    std::string id;
    std::uint64_t seed = 0;
    driver::CellOutcome outcome;
    obs::CounterMap counters;      //!< the .dmtevents footer set
    obs::CounterMap management;    //!< managementStats, summed levels
    std::uint64_t framesInUse = 0; //!< simulated frames after setup
    std::uint64_t eventBytes = 0;  //!< .dmtevents size (events only)
    std::uint64_t eventCount = 0;
    std::uint64_t loopAccesses = 0; //!< warmup + measure
};

/**
 * Fold `tea.<level>.x` / `mapping.<level>.x` (and the native
 * unprefixed form) into `tea.x` / `mapping.x`, so every environment
 * reports one fixed key set.
 */
obs::CounterMap
foldManagement(const StatGroup &g)
{
    obs::CounterMap out;
    for (const auto &[name, value] :
         obs::counterMapFromStats(g)) {
        const auto first = name.find('.');
        const auto last = name.rfind('.');
        out[name.substr(0, first) + name.substr(last)] += value;
    }
    return out;
}

/** Mechanism-side outcome fields, exactly as driver::runCell sets them. */
void
fillOutcome(NativeTestbed &tb, driver::CellOutcome &out)
{
    if (tb.dmtFetcher())
        out.coverage = tb.dmtFetcher()->stats().coverage();
}

void
fillOutcome(VirtTestbed &tb, driver::CellOutcome &out)
{
    if (tb.dmtFetcher())
        out.coverage = tb.dmtFetcher()->stats().coverage();
    if (tb.shadowPager())
        out.shadowExits = tb.shadowPager()->exits();
    if (tb.hypercall()) {
        out.hypercalls = tb.hypercall()->hypercalls();
        out.hypercallCycles = tb.hypercall()->simulatedCost();
    }
}

void
fillOutcome(NestedTestbed &tb, driver::CellOutcome &out)
{
    if (tb.dmtFetcher())
        out.coverage = tb.dmtFetcher()->stats().coverage();
    if (tb.shadowPager())
        out.shadowExits = tb.shadowPager()->exits();
    if (tb.l2Hypercall()) {
        out.hypercalls = tb.l2Hypercall()->hypercalls();
        out.hypercallCycles = tb.l2Hypercall()->simulatedCost();
    }
}

PhysicalMemory &physMem(NativeTestbed &tb) { return tb.mem(); }
PhysicalMemory &physMem(VirtTestbed &tb) { return tb.hostMem(); }
PhysicalMemory &physMem(NestedTestbed &tb) { return tb.l0Mem(); }

void attach(NativeTestbed &tb, Design) { tb.attachDmt(); }
void
attach(VirtTestbed &tb, Design d)
{
    tb.attachDmt(d == Design::PvDmt);
}
void attach(NestedTestbed &tb, Design) { tb.attachPvDmt(); }

bool
needsAttach(CampaignEnv env, Design d)
{
    if (env == CampaignEnv::Nested)
        return d == Design::PvDmt;
    return d == Design::Dmt || d == Design::PvDmt;
}

/**
 * driver::runCell, one timed span per phase. The construction order,
 * seeds, simulator configuration and event-footer counters are
 * runCell's, so the outcome (and the .dmtevents bytes) must match it
 * exactly; the oracle in run.py holds it to that.
 */
template <class Testbed>
CellRecord
runCellSplit(const CellDef &c, std::uint64_t seed,
             const std::string &events_path, Recorder &rec)
{
    CellRecord out;
    out.id = cellId(c);
    out.seed = seed;
    auto wl = makeWorkload(c.workload, c.scale);
    const TestbedConfig tbCfg = scaledTestbedConfig(c.scale);
    std::unique_ptr<Testbed> tb;
    rec.time("sim.testbed.construct_s", [&] {
        tb = std::make_unique<Testbed>(wl->footprintBytes(), tbCfg);
    });
    if (needsAttach(c.env, c.design))
        rec.time("core.attach_s", [&] { attach(*tb, c.design); });
    rec.time("workloads.setup_s", [&] { wl->setup(tb->proc()); });
    out.framesInUse = physMem(*tb).framesInUse();
    TranslationMechanism *mech = nullptr;
    rec.time("sim.testbed.build_s",
             [&] { mech = &tb->build(c.design); });
    std::unique_ptr<TraceSource> trace;
    rec.time("workloads.trace_s", [&] { trace = wl->trace(seed); });

    TranslationSimulator sim(*mech, tb->tlbs(), tb->caches());
    std::unique_ptr<obs::FileEventSink> sink;
    if (!events_path.empty())
        sink = std::make_unique<obs::FileEventSink>(events_path);
    StatGroup before("before");
    tb->translationStats(before);
    sim.setEventSink(sink.get());
    SimSession session(sim, *trace, c.sim);
    rec.time("sim.warmup_s",
             [&] { session.advance(c.sim.warmupAccesses); });
    rec.time("sim.measure_s", [&] { session.advance(); });
    out.loopAccesses = session.total();
    sim.setEventSink(nullptr);
    out.outcome.sim = session.result();
    StatGroup after("after");
    tb->translationStats(after);
    out.counters = obs::diffCounters(obs::counterMapFromStats(before),
                                     obs::counterMapFromStats(after));
    obs::addSimResultCounters(out.counters, out.outcome.sim);
    if (sink) {
        sink->setCounters(out.counters);
        rec.time("obs.finish_s", [&] { sink->finish(); });
        out.eventCount = sink->eventCount();
        out.eventBytes = std::filesystem::file_size(events_path);
    }
    out.outcome.design = mech->name();
    fillOutcome(*tb, out.outcome);
    StatGroup mgmt("mgmt");
    tb->managementStats(mgmt);
    out.management = foldManagement(mgmt);
    rec.time("sim.testbed.teardown_s", [&] { tb.reset(); });
    return out;
}

CellRecord
runCellSplit(const CellDef &c, std::uint64_t seed,
             const std::string &events_path, Recorder &rec)
{
    switch (c.env) {
      case CampaignEnv::Native:
        return runCellSplit<NativeTestbed>(c, seed, events_path, rec);
      case CampaignEnv::Virt:
        return runCellSplit<VirtTestbed>(c, seed, events_path, rec);
      case CampaignEnv::Nested:
        break;
    }
    return runCellSplit<NestedTestbed>(c, seed, events_path, rec);
}

driver::CellSpec
specOf(const CellDef &c)
{
    return {c.workload, c.env, c.design, false};
}

/** Seed of a cell: its campaign seed, or its tenant's seed. */
std::uint64_t
seedOf(const CellDef &c, std::uint64_t base)
{
    if (c.tenant)
        return host::HostNode::tenantSeed(base, *c.tenant);
    return driver::cellSeed(base, specOf(c));
}

/** One pass: the phase sums plus every cell's (tenant's) record. */
struct PassRecord
{
    double wallSeconds = 0.0;
    bool traced = false;
    std::map<std::string, double> sums;
    std::vector<CellRecord> cells;
    host::NodePointResult node;
};

PassRecord
runPass(const WorkloadDef &def, std::uint64_t base_seed,
        const std::string &events_dir, bool keep_spans, Recorder &rec)
{
    PassRecord pass;
    pass.traced = keep_spans;
    rec.beginPass(keep_spans);
    rec.setScope("");
    const double t0 = rec.now();
    rec.time("pass", [&] {
        for (const CellDef &c : def.cells) {
            const std::string id = cellId(c);
            rec.setScope(id);
            const std::string events =
                c.events ? events_dir + "/" +
                               driver::cellEventsFileName(specOf(c))
                         : std::string();
            rec.time("cell", [&] {
                pass.cells.push_back(
                    runCellSplit(c, seedOf(c, base_seed), events, rec));
            });
        }
        if (!def.node)
            return;
        rec.setScope("node");
        host::HostNodeConfig cfg;
        const host::NodeSweepConfig &sw = def.nodeCfg;
        // host::runNodeSweep's per-point configuration.
        cfg.cores = sw.cores;
        cfg.sliceAccesses = sw.sliceAccesses;
        cfg.flush = sw.flush;
        cfg.slice = sw.slice;
        cfg.migrateEveryRounds = sw.migrateEveryRounds;
        cfg.costs = sw.costs;
        cfg.scale = sw.scale;
        cfg.baseSeed = base_seed;
        cfg.sim = sw.sim;
        std::unique_ptr<host::HostNode> node;
        std::vector<host::HostTenantResult> tenants;
        rec.time("host.node.construct_s", [&] {
            node = std::make_unique<host::HostNode>(
                cfg, host::sweepTenants(sw, sw.tenantsPerCore[0]));
        });
        rec.time("host.node.run_s", [&] { tenants = node->run(); });
        const std::uint64_t rounds = node->rounds();
        rec.time("host.node.teardown_s", [&] { node.reset(); });
        pass.node = host::foldNodePoint(sw.tenantsPerCore[0], rounds,
                                        std::move(tenants));
    });
    pass.wallSeconds = rec.now() - t0;
    pass.sums = rec.sums();
    return pass;
}

/* ---------------------------------------------------------------- */
/* JSON output                                                       */
/* ---------------------------------------------------------------- */

/** The outcome fields under BENCH_campaign.json's cell key names. */
void
emitOutcome(JsonWriter &json, const driver::CellOutcome &o)
{
    const SimResult &s = o.sim;
    json.beginObject();
    json.field("mechanism", o.design);
    json.field("accesses", s.accesses);
    json.field("l1_tlb_hits", s.l1TlbHits);
    json.field("stlb_hits", s.l2TlbHits);
    json.field("walks", s.walks);
    json.field("walk_cycles", s.walkCycles);
    json.field("seq_refs", s.seqRefs);
    json.field("parallel_refs", s.parallelRefs);
    json.field("fallbacks", s.fallbacks);
    json.field("coverage", o.coverage);
    json.field("shadow_exits", o.shadowExits);
    json.field("hypercalls", o.hypercalls);
    json.field("hypercall_cycles", o.hypercallCycles);
    json.endObject();
}

void
emitCounterMap(JsonWriter &json, const obs::CounterMap &m)
{
    json.beginObject();
    for (const auto &[name, value] : m)
        json.field(name, value);
    json.endObject();
}

void
emitHostStats(JsonWriter &json, const host::HostTenantStats &h)
{
    json.beginObject();
    json.field("dispatches", h.dispatches);
    json.field("ctx_switches", h.ctxSwitches);
    json.field("migrations", h.migrations);
    json.field("shootdowns", h.shootdowns);
    json.field("tlb_flushes", h.tlbFlushes);
    json.field("pwc_flushes", h.pwcFlushes);
    json.field("reg_hits", h.regHits);
    json.field("reg_loads", h.regLoads);
    json.field("reg_saves", h.regSaves);
    json.field("switch_cycles", h.switchCycles);
    json.field("shootdown_cycles", h.shootdownCycles);
    json.field("coherence_cycles", h.coherenceCycles);
    json.endObject();
}

/**
 * The simulated result of a pass as oracle entries: one per cell
 * (`<env>/<workload>/<design>`) and, on node, one per tenant
 * (`node/t<N>`) plus `node/point`.
 */
void
emitResults(JsonWriter &json, const std::vector<CellRecord> &cells,
            const host::NodePointResult *node)
{
    json.beginObject();
    for (const CellRecord &c : cells) {
        json.key(c.id);
        json.beginObject();
        json.field("seed", c.seed);
        json.key("outcome");
        emitOutcome(json, c.outcome);
        if (!c.counters.empty()) {
            json.key("counters");
            emitCounterMap(json, c.counters);
        }
        json.endObject();
    }
    if (node) {
        for (const host::HostTenantResult &t : node->perTenant) {
            json.key("node/" + t.spec.name);
            json.beginObject();
            json.field("seed", t.seed);
            json.key("outcome");
            driver::CellOutcome o;
            o.sim = t.sim;
            o.coverage = t.coverage;
            o.shadowExits = t.shadowExits;
            o.hypercalls = t.hypercalls;
            o.hypercallCycles = t.hypercallCycles;
            o.design = t.design;
            emitOutcome(json, o);
            json.key("host");
            emitHostStats(json, t.host);
            json.endObject();
        }
        json.key("node/point");
        json.beginObject();
        json.key("point");
        json.beginObject();
        json.field("tenants", static_cast<std::uint64_t>(node->tenants));
        json.field("rounds", node->rounds);
        json.field("accesses", node->accesses);
        json.endObject();
        json.endObject();
    }
    json.endObject();
}

/** Deterministic per-layer counts of one pass (summed over cells). */
void
emitCounts(JsonWriter &json, const PassRecord &pass)
{
    obs::CounterMap counts;
    for (const CellRecord &c : pass.cells) {
        for (const auto &[k, v] : c.counters)
            counts[k] += v;
        for (const auto &[k, v] : c.management)
            counts[k] += v;
        counts["mem.frames_in_use"] += c.framesInUse;
        counts["sim.loop_accesses"] += c.loopAccesses;
        counts["obs.events"] += c.eventCount;
        counts["obs.bytes"] += c.eventBytes;
    }
    const host::NodePointResult &n = pass.node;
    counts["host.rounds"] = n.rounds;
    counts["host.ctx_switches"] = n.ctxSwitches;
    counts["host.reg_loads"] = n.regLoads;
    counts["host.reg_hits"] = n.regHits;
    emitCounterMap(json, counts);
}

void
emitPass(JsonWriter &json, const PassRecord &pass)
{
    json.beginObject();
    json.field("wall_s", pass.wallSeconds);
    json.field("traced", pass.traced);
    json.key("spans");
    json.beginObject();
    for (const auto &[name, secs] : pass.sums)
        json.field(name, secs);
    json.endObject();
    json.key("results");
    emitResults(json, pass.cells, pass.node.tenants ? &pass.node
                                                    : nullptr);
    json.endObject();
}

void
emitSpans(JsonWriter &json, const std::vector<Recorder::Span> &spans)
{
    json.beginArray();
    for (const Recorder::Span &s : spans) {
        json.beginObject();
        json.field("name", s.name);
        json.field("start", s.start);
        json.field("end", s.end);
        json.field("parent", s.parent);
        json.field("scope", s.scope);
        json.endObject();
    }
    json.endArray();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/* ---------------------------------------------------------------- */
/* Untimed oracle: the library's own drivers                         */
/* ---------------------------------------------------------------- */

std::vector<CellRecord>
oracleCells(const WorkloadDef &def, std::uint64_t base_seed)
{
    std::vector<CellRecord> out;
    for (const CellDef &c : def.cells) {
        if (c.tenant)
            continue;  // a tenant's oracle is the sweep point itself
        auto wl = makeWorkload(c.workload, c.scale);
        CellRecord r;
        r.id = cellId(c);
        r.seed = driver::cellSeed(base_seed, specOf(c));
        r.outcome = driver::runCell(*wl, c.env, c.design,
                                    scaledTestbedConfig(c.scale), c.sim,
                                    r.seed);
        out.push_back(std::move(r));
    }
    return out;
}

host::NodePointResult
oracleNode(const WorkloadDef &def, std::uint64_t base_seed)
{
    host::NodeSweepConfig cfg = def.nodeCfg;
    cfg.baseSeed = base_seed;
    auto points = host::runNodeSweep(cfg, 1);
    return std::move(points.front());
}

/* ---------------------------------------------------------------- */
/* Command line                                                      */
/* ---------------------------------------------------------------- */

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t seconds = 10;
    bool trace = false;
    std::uint64_t passes = 0;  //!< exact pass count; 0 = by --seconds
    bool tiny = false;
    std::string eventsDir = ".bench_out/events";
};

[[noreturn]] void
usage(const char *argv0, const std::string &why)
{
    std::fprintf(stderr,
                 "%s: %s\n"
                 "usage: %s --workload setup|translate\n"
                 "          --seed N --seconds N (1..3600) [--trace]\n"
                 "          [--passes N] [--tiny] [--events-dir DIR]\n",
                 argv0, why.c_str(), argv0);
    std::exit(2);
}

/** Whole-token unsigned decimal in [lo, hi]; exit 2 otherwise. */
std::uint64_t
parseUnsigned(const char *argv0, const std::string &flag,
              const std::string &tok, std::uint64_t lo,
              std::uint64_t hi)
{
    std::uint64_t v = 0;
    const char *first = tok.data();
    const char *last = first + tok.size();
    const auto [ptr, ec] = std::from_chars(first, last, v);
    if (tok.empty() || ec != std::errc() || ptr != last || v < lo ||
        v > hi) {
        usage(argv0, flag + " expects an integer in [" +
                         std::to_string(lo) + ", " +
                         std::to_string(hi) + "], got '" + tok + "'");
    }
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0], arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = parseUnsigned(argv[0], arg, value(), 0,
                                     UINT64_MAX);
            haveSeed = true;
        } else if (arg == "--seconds") {
            opt.seconds = parseUnsigned(argv[0], arg, value(), 1, 3600);
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--passes") {
            opt.passes = parseUnsigned(argv[0], arg, value(), 1, 1000);
        } else if (arg == "--tiny") {
            opt.tiny = true;
        } else if (arg == "--events-dir") {
            opt.eventsDir = value();
        } else {
            usage(argv[0], "unknown argument '" + arg + "'");
        }
    }
    if (!haveSeed)
        usage(argv[0], "--seed is required");
    if (makeWorkloadDef(opt.workload, false).cells.empty())
        usage(argv[0], "unknown workload '" + opt.workload + "'");
    return opt;
}

/** Replay-verify an events stream (untimed). @return mismatch lines. */
std::vector<std::string>
verifyEvents(const std::string &path)
{
    const obs::EventLog log = obs::readEventLog(path);
    return obs::compareCounters(log.counters,
                                obs::reconstructCounters(log.events));
}

/**
 * Untimed check of one pass's event streams: the first stream of each
 * cell is replayed in full (as tools/events_check does), later passes
 * must reproduce its bytes. The streams are deleted afterwards.
 */
void
checkEvents(const WorkloadDef &def, const std::string &dir,
            std::map<std::string, std::uint64_t> &digests,
            std::vector<std::string> &mismatches)
{
    for (const CellDef &c : def.cells) {
        if (!c.events)
            continue;
        const std::string path =
            dir + "/" + driver::cellEventsFileName(specOf(c));
        const std::uint64_t digest = obs::fileDigest(path);
        const auto [it, first] = digests.emplace(cellId(c), digest);
        if (first) {
            for (const std::string &m : verifyEvents(path))
                mismatches.push_back(cellId(c) + ": " + m);
        } else if (it->second != digest) {
            mismatches.push_back(cellId(c) +
                                 ": stream bytes differ between passes");
        }
        std::filesystem::remove(path);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const WorkloadDef def = makeWorkloadDef(opt.workload, opt.tiny);
    Recorder rec;

    // The untimed oracle runs first and doubles as the warm-up.
    const std::vector<CellRecord> oracle = oracleCells(def, opt.seed);
    host::NodePointResult oracleNodePoint;
    if (def.node)
        oracleNodePoint = oracleNode(def, opt.seed);

    std::vector<PassRecord> passes;
    std::vector<std::string> eventMismatches;
    std::map<std::string, std::uint64_t> eventDigests;
    std::filesystem::create_directories(opt.eventsDir);
    const double start = rec.now();
    auto more = [&] {
        if (opt.passes != 0)
            return passes.size() < opt.passes;
        // At least two passes, so a run's median is never a lone
        // sample; then stop at the pass boundary nearest to
        // --seconds.
        const double used = rec.now() - start;
        const double perPass =
            passes.empty() ? 0.0
                           : used / static_cast<double>(passes.size());
        return passes.size() < 2 ||
               used + perPass / 2 < static_cast<double>(opt.seconds);
    };
    while (more()) {
        // A traced run alternates traced and untraced passes; the
        // difference of their medians is the tracing overhead.
        const bool keep = opt.trace && passes.size() % 2 == 0;
        passes.push_back(runPass(def, opt.seed, opt.eventsDir, keep, rec));
        checkEvents(def, opt.eventsDir, eventDigests, eventMismatches);
    }

    JsonWriter json(std::cout);
    json.beginObject();
    json.field("schema", "dmt-hostbench-v1");
    json.field("workload", opt.workload);
    json.field("base_seed", opt.seed);
    json.key("passes");
    json.beginArray();
    for (const PassRecord &p : passes)
        emitPass(json, p);
    json.endArray();
    if (!passes.empty()) {
        json.key("counts");
        emitCounts(json, passes.front());
    }
    json.key("event_mismatches");
    json.beginArray();
    for (const std::string &m : eventMismatches)
        json.value(m);
    json.endArray();
    if (opt.trace) {
        json.key("spans");
        emitSpans(json, rec.spans());
    }
    json.field("peak_rss_mb", peakRssMb());
    json.key("oracle");
    emitResults(json, oracle, def.node ? &oracleNodePoint : nullptr);
    json.endObject();
    std::cout << "\n";
    return 0;
}
