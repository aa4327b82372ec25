/**
 * @file
 * Figure 14 — native environment: page-walk and application speedup
 * of FPT, ECPT, ASAP and DMT over vanilla Linux, with 4 KB pages and
 * with THP.
 *
 * Walk speedup is the ratio of simulated translation overhead per
 * access (O_sim); application speedup applies the §5 execution-time
 * model with the paper-calibrated measured baseline.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/stats.hh"

using namespace dmt;
using namespace dmt::bench;

namespace
{

const std::vector<Design> designs = {Design::Fpt, Design::Ecpt,
                                     Design::Asap, Design::Dmt};

void
runMode(bool thp, JsonReport &json)
{
    std::printf("\n--- Figure 14%s: native, %s ---\n",
                thp ? "b" : "a", thp ? "THP" : "4KB pages");
    Table walkTable({"Workload", "FPT", "ECPT", "ASAP", "DMT"});
    Table appTable({"Workload", "FPT", "ECPT", "ASAP", "DMT"});

    std::map<Design, std::vector<double>> walkAll, appAll;
    const double scale = scaleFromEnv();
    for (const auto &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, scale);
        const Calibration &cal = wl->calibration();
        const Outcome vanilla =
            runIn(Env::Native, *wl, Design::Vanilla, thp);
        const double oVanilla = vanilla.sim.overheadPerAccess();

        std::vector<std::string> walkRow{name}, appRow{name};
        for (Design d : designs) {
            auto wl2 = makeWorkload(name, scale);
            const Outcome out = runIn(Env::Native, *wl2, d, thp);
            const double oTarget = out.sim.overheadPerAccess();
            const double walkSpeedup =
                oTarget > 0.0 && oVanilla > 0.0 ? oVanilla / oTarget
                                                : 1.0;
            const double tTarget = modelExecTime(
                cal, Environment::Native, oVanilla, oTarget);
            const double appSpeedup = 1.0 / tTarget;
            walkRow.push_back(Table::num(walkSpeedup));
            appRow.push_back(Table::num(appSpeedup));
            walkAll[d].push_back(walkSpeedup);
            appAll[d].push_back(appSpeedup);
        }
        walkTable.addRow(walkRow);
        appTable.addRow(appRow);
    }
    std::vector<std::string> walkGeo{"Geo. Mean"}, appGeo{"Geo. Mean"};
    for (Design d : designs) {
        walkGeo.push_back(Table::num(geoMean(walkAll[d])));
        appGeo.push_back(Table::num(geoMean(appAll[d])));
    }
    walkTable.addRow(walkGeo);
    appTable.addRow(appGeo);

    std::printf("Page walk speedup over Vanilla Linux:\n");
    walkTable.print();
    json.addTable(std::string("fig14_walk_speedup_") +
                      (thp ? "thp" : "4k"),
                  walkTable);
    std::printf("\nApplication speedup over Vanilla Linux:\n");
    appTable.print();
    json.addTable(std::string("fig14_app_speedup_") +
                      (thp ? "thp" : "4k"),
                  appTable);
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport json(argc, argv, "fig14");
    printConfigBanner("Figure 14: native-environment speedups of "
                      "advanced translation designs");
    runMode(false, json);
    runMode(true, json);
    std::printf("\nPaper reference: DMT walk speedup 1.28x (4KB) / "
                "1.46x (THP); app speedup ~1.05x.\n");
    return 0;
}
