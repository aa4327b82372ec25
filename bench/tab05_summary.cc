/**
 * @file
 * Table 5 — geometric-mean page-walk speedup of DMT/pvDMT over the
 * other advanced designs (FPT, ECPT, Agile Paging, ASAP), in native
 * and virtualized environments, with 4 KB pages and with THP. pvDMT
 * is used for the virtualized comparisons, DMT for the native ones.
 */

#include <cstdio>
#include <map>

#include "bench_util.hh"
#include "common/stats.hh"

using namespace dmt;
using namespace dmt::bench;

namespace
{

/** Geomean of per-workload (other / dmt) overhead ratios. */
double
speedupOver(const std::map<std::string, double> &dmt,
            const std::map<std::string, double> &other)
{
    std::vector<double> ratios;
    for (const auto &[name, o] : other) {
        auto it = dmt.find(name);
        if (it != dmt.end() && it->second > 0.0 && o > 0.0)
            ratios.push_back(o / it->second);
    }
    if (ratios.empty())
        return 1.0;
    return geoMean(ratios);
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport json(argc, argv, "tab05");
    printConfigBanner("Table 5: DMT/pvDMT walk speedup over other "
                      "advanced designs (geometric means)");

    const double scale = scaleFromEnv();
    Table table({"Environment", "FPT", "ECPT", "Agile Paging",
                 "ASAP"});

    for (const bool virtualized : {false, true}) {
        for (const bool thp : {false, true}) {
            // Overhead-per-access per design per workload.
            std::map<Design, std::map<std::string, double>> o;
            const std::vector<Design> others =
                virtualized
                    ? std::vector<Design>{Design::Fpt, Design::Ecpt,
                                          Design::Agile, Design::Asap}
                    : std::vector<Design>{Design::Fpt, Design::Ecpt,
                                          Design::Asap};
            const Design mine =
                virtualized ? Design::PvDmt : Design::Dmt;
            const Env cellEnv = virtualized ? Env::Virt : Env::Native;
            for (const auto &name : paperWorkloadNames()) {
                for (Design d : others) {
                    auto wl = makeWorkload(name, scale);
                    o[d][name] = runIn(cellEnv, *wl, d, thp)
                                     .sim.overheadPerAccess();
                }
                auto wl = makeWorkload(name, scale);
                o[mine][name] =
                    runIn(cellEnv, *wl, mine, thp).sim.overheadPerAccess();
            }
            const std::string env =
                std::string(virtualized ? "Virtualized" : "Native") +
                (thp ? " (THP)" : " (4KB)");
            table.addRow(
                {env, Table::num(speedupOver(o[mine], o[Design::Fpt])),
                 Table::num(speedupOver(o[mine], o[Design::Ecpt])),
                 virtualized
                     ? Table::num(
                           speedupOver(o[mine], o[Design::Agile]))
                     : std::string("N/A"),
                 Table::num(speedupOver(o[mine], o[Design::Asap]))});
        }
    }
    table.print();
    json.addTable("tab05_speedup_over_designs", table);
    std::printf("\nPaper reference: Native 4KB 1.04/1.03/N-A/1.06; "
                "Native THP 1.18/1.17/N-A/1.23; Virt 4KB "
                "1.22/1.16/1.21/1.31; Virt THP 1.49/1.25/1.34/"
                "1.51.\n");
    return 0;
}
