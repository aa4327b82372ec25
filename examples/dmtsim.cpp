/**
 * @file
 * dmtsim — the command-line driver: run any (workload, design,
 * environment, page mode) cell and print the full report.
 *
 *   dmtsim [--workload NAME] [--design NAME] [--env native|virt|
 *          nested] [--thp] [--scale N] [--accesses N] [--warmup N]
 *          [--seed N] [--audit[=N]] [--json FILE]
 *          [--record-trace FILE | --trace FILE]
 *
 * --json writes the cell as one object in exactly the schema of one
 * entry of dmt-campaign's BENCH_campaign.json "cells" array (see that
 * tool for grid sweeps). A design not modelled in the environment
 * is a usage error (exit 2).
 *
 * Examples:
 *   dmtsim --workload Redis --design pvdmt --env virt
 *   dmtsim --workload GUPS --design vanilla --env nested --thp
 *   dmtsim --workload BTree --record-trace btree.trc
 *   dmtsim --trace btree.trc --design dmt
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>

#include "driver/campaign.hh"
#include "driver/cell.hh"
#include "driver/cli.hh"
#include "driver/json.hh"

#include "check/invariant_auditor.hh"
#include "common/log.hh"
#include "workloads/trace_file.hh"
#include "workloads/workloads.hh"

using namespace dmt;

namespace
{

struct Options
{
    std::string workload = "GUPS";
    driver::CampaignEnv env = driver::CampaignEnv::Native;
    Design design = Design::Vanilla;
    bool thp = false;
    double scale = 1.0 / 16.0;
    std::uint64_t accesses = 1'000'000;
    std::uint64_t warmup = 200'000;
    std::uint64_t seed = 42;
    std::string recordTrace;
    std::string traceFile;
    std::string jsonOut;
    std::string eventsOut;
    bool audit = false;
    std::uint64_t auditInterval = 0;  //!< 0 = final sweep only
};

[[noreturn]] void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--workload Redis|Memcached|GUPS|BTree|Canneal|"
        "XSBench|Graph500]\n"
        "          [--design vanilla|shadow|fpt|ecpt|agile|asap|dmt|"
        "pvdmt]\n"
        "          [--env native|virt|nested] [--thp] [--scale N]\n"
        "          [--accesses N] [--warmup N] [--seed N]\n"
        "          [--audit[=N]] [--json FILE] [--events FILE]\n"
        "          [--record-trace FILE] [--trace FILE]\n",
        argv0);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    std::string env = "native";
    std::string design = "vanilla";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--workload") opt.workload = value();
        else if (arg == "--design") design = value();
        else if (arg == "--env") env = value();
        else if (arg == "--thp") opt.thp = true;
        else if (arg == "--scale")
            opt.scale =
                driver::parseScaleFlag(argv[0], arg, value(), usage);
        else if (arg == "--accesses")
            opt.accesses = driver::parseUintFlag(
                argv[0], arg, value(), 1, driver::kMaxFlagAccesses,
                usage);
        else if (arg == "--warmup")
            opt.warmup = driver::parseUintFlag(
                argv[0], arg, value(), 0, driver::kMaxFlagAccesses,
                usage);
        else if (arg == "--seed")
            opt.seed = driver::parseUintFlag(argv[0], arg, value(), 0,
                                             driver::kNoFlagMax, usage);
        else if (arg == "--json") opt.jsonOut = value();
        else if (arg == "--events") opt.eventsOut = value();
        else if (arg.rfind("--events=", 0) == 0)
            opt.eventsOut = arg.substr(std::strlen("--events="));
        else if (arg == "--record-trace") opt.recordTrace = value();
        else if (arg == "--trace") opt.traceFile = value();
        else if (arg == "--audit") opt.audit = true;
        else if (arg.rfind("--audit=", 0) == 0) {
            opt.audit = true;
            opt.auditInterval = driver::parseUintFlag(
                argv[0], "--audit", arg.substr(std::strlen("--audit=")),
                0, driver::kNoFlagMax, usage);
        }
        else usage(argv[0]);
    }
    std::tie(opt.env, opt.design) =
        driver::parseCellFlags(argv[0], env, design, usage);
    return opt;
}

void
report(const SimResult &res, double coverage)
{
    std::printf("\naccesses            %llu\n",
                static_cast<unsigned long long>(res.accesses));
    std::printf("L1 TLB hits         %llu (%.2f%%)\n",
                static_cast<unsigned long long>(res.l1TlbHits),
                100.0 * static_cast<double>(res.l1TlbHits) /
                    static_cast<double>(res.accesses));
    std::printf("STLB hits           %llu (%.2f%%)\n",
                static_cast<unsigned long long>(res.l2TlbHits),
                100.0 * static_cast<double>(res.l2TlbHits) /
                    static_cast<double>(res.accesses));
    std::printf("page walks          %llu\n",
                static_cast<unsigned long long>(res.walks));
    std::printf("mean walk latency   %.2f cycles\n",
                res.meanWalkLatency());
    std::printf("dependent refs/walk %.2f\n", res.meanSeqRefs());
    std::printf("parallel refs/walk  %.2f\n",
                res.walks ? static_cast<double>(res.parallelRefs) /
                                static_cast<double>(res.walks)
                          : 0.0);
    std::printf("walk overhead       %.3f cycles/access\n",
                res.overheadPerAccess());
    std::printf("fallback walks      %llu\n",
                static_cast<unsigned long long>(res.fallbacks));
    if (coverage >= 0.0)
        std::printf("register coverage   %.2f%%\n", coverage * 100);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    auto wl = makeWorkload(opt.workload, opt.scale);

    if (!opt.recordTrace.empty()) {
        // Record mode: lay out the workload natively, dump its trace,
        // done.
        driver::Cell cell(*wl, driver::CampaignEnv::Native,
                          Design::Vanilla, scaledTestbedConfig(opt.scale),
                          opt.seed);
        recordTrace(cell.trace(), opt.warmup + opt.accesses,
                    opt.recordTrace);
        std::printf("recorded %llu accesses of %s to %s\n",
                    static_cast<unsigned long long>(opt.warmup +
                                                    opt.accesses),
                    opt.workload.c_str(), opt.recordTrace.c_str());
        return 0;
    }

    const TestbedConfig cfg = scaledTestbedConfig(
        opt.scale, opt.thp ? ThpMode::Always : ThpMode::Never);
    SimConfig simCfg;
    simCfg.warmupAccesses = opt.warmup;
    simCfg.measureAccesses = opt.accesses;

    std::printf("%s / %s / %s%s, working set %.2f GB (1/%.0f of the "
                "paper)\n",
                opt.workload.c_str(), driver::designId(opt.design).c_str(),
                driver::envId(opt.env).c_str(), opt.thp ? " +THP" : "",
                static_cast<double>(wl->footprintBytes()) /
                    (1ull << 30),
                1.0 / opt.scale);

    // Declared before the cell: subsystems unregister their audit
    // hooks on destruction, so the auditor must outlive them.
    InvariantAuditor auditor;
    if (opt.audit && opt.auditInterval) {
#ifndef DMT_ENABLE_AUDIT
        warn("--audit=%llu requested but interval sweeps are compiled "
             "out; configure with -DDMT_ENABLE_AUDIT=ON (a final "
             "sweep still runs)",
             static_cast<unsigned long long>(opt.auditInterval));
#endif
        auditor.setInterval(opt.auditInterval);
    }
    driver::Cell cell(*wl, opt.env, opt.design, cfg, opt.seed,
                      opt.traceFile.empty()
                          ? nullptr
                          : std::make_unique<FileTrace>(opt.traceFile));
    // Interval sweeps are meaningful only once the machine is in a
    // steady state: attach after setup and build.
    if (opt.audit)
        cell.attachAuditor(auditor);
    if (!opt.eventsOut.empty())
        cell.beginEvents(opt.eventsOut);
    driver::CellResult res{
        {opt.workload, opt.env, opt.design, opt.thp}, opt.seed, {}};
    res.outcome.sim = cell.sim().run(cell.trace(), simCfg);
    const std::uint64_t events = cell.finishEvents(res.outcome.sim);
    if (!opt.eventsOut.empty())
        std::printf("wrote %llu events to %s\n",
                    static_cast<unsigned long long>(events),
                    opt.eventsOut.c_str());
    if (opt.audit) {
        auditor.sweep();
        // Teardown transients (freed VMAs, stale TLB entries) are
        // not violations; stop sweeping before destructors.
        auditor.setInterval(0);
    }
    cell.readout(res.outcome);

    const bool dmt =
        opt.design == Design::Dmt || opt.design == Design::PvDmt;
    report(res.outcome.sim, dmt ? res.outcome.coverage : -1.0);
    if (!opt.jsonOut.empty()) {
        std::ofstream os(opt.jsonOut, std::ios::binary);
        if (!os)
            fatal("cannot open '%s' for writing",
                  opt.jsonOut.c_str());
        JsonWriter json(os);
        driver::emitCellJson(json, res);
        std::printf("wrote %s\n", opt.jsonOut.c_str());
    }
    if (opt.audit) {
        auditor.report();
        std::printf("audit               %llu sweeps, %llu hook runs, "
                    "%llu violations\n",
                    static_cast<unsigned long long>(
                        auditor.stats().sweeps),
                    static_cast<unsigned long long>(
                        auditor.stats().hooksRun),
                    static_cast<unsigned long long>(
                        auditor.stats().violations));
        if (!auditor.clean())
            return 3;
    }
    return 0;
}
