/**
 * @file
 * Figure 15 — virtualized environment: page-walk and application
 * speedup of FPT, ECPT, Agile Paging, ASAP, DMT and pvDMT over
 * vanilla Linux/KVM (hardware nested paging), with 4 KB pages and
 * with THP.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/stats.hh"

using namespace dmt;
using namespace dmt::bench;

namespace
{

const std::vector<Design> designs = {Design::Fpt,  Design::Ecpt,
                                     Design::Agile, Design::Asap,
                                     Design::Dmt,  Design::PvDmt};

void
runMode(bool thp, JsonReport &json)
{
    std::printf("\n--- Figure 15%s: virtualized, %s ---\n",
                thp ? "b" : "a", thp ? "THP" : "4KB pages");
    const std::vector<std::string> header = {
        "Workload", "FPT", "ECPT", "Agile", "ASAP", "DMT", "pvDMT"};
    Table walkTable(header);
    Table appTable(header);

    std::map<Design, std::vector<double>> walkAll, appAll;
    const double scale = scaleFromEnv();
    for (const auto &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, scale);
        const Calibration &cal = wl->calibration();
        const Outcome vanilla = runIn(Env::Virt, *wl, Design::Vanilla, thp);
        const double oVanilla = vanilla.sim.overheadPerAccess();

        std::vector<std::string> walkRow{name}, appRow{name};
        for (Design d : designs) {
            auto wl2 = makeWorkload(name, scale);
            const Outcome out = runIn(Env::Virt, *wl2, d, thp);
            const double oTarget = out.sim.overheadPerAccess();
            const double walkSpeedup =
                oTarget > 0.0 && oVanilla > 0.0 ? oVanilla / oTarget
                                                : 1.0;
            // Agile Paging keeps ~10% of shadow exits, but relative
            // to the nested-paging baseline it adds none; no shadow
            // correction applies in this environment.
            const double tTarget = modelExecTime(
                cal, Environment::VirtNested, oVanilla, oTarget);
            const double appSpeedup =
                baselineTotal(cal, Environment::VirtNested) / tTarget;
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

    std::printf("Page walk speedup over Vanilla KVM:\n");
    walkTable.print();
    json.addTable(std::string("fig15_walk_speedup_") +
                      (thp ? "thp" : "4k"),
                  walkTable);
    std::printf("\nApplication speedup over Vanilla KVM:\n");
    appTable.print();
    json.addTable(std::string("fig15_app_speedup_") +
                      (thp ? "thp" : "4k"),
                  appTable);
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport json(argc, argv, "fig15");
    printConfigBanner("Figure 15: virtualized-environment speedups of "
                      "advanced translation designs");
    runMode(false, json);
    runMode(true, json);
    std::printf("\nPaper reference: pvDMT walk speedup 1.58x (4KB) / "
                "1.65x (THP); app speedup 1.20x / 1.14x. DMT without "
                "pv: 1.41x / 1.55x walk, 1.15x / 1.12x app.\n");
    return 0;
}
