/**
 * @file
 * Figure 17 — nested virtualization: page-walk and application
 * speedup of pvDMT over the vanilla nested-KVM baseline (shadow
 * paging on top of nested paging), with 4 KB pages and with THP.
 *
 * pvDMT is the first hardware-assisted translation for nested
 * virtualization: its application gains come mostly from eliminating
 * the shadow-paging VM exits, which the §5 model accounts for by
 * removing the calibrated shadow fraction from the ideal time.
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/stats.hh"

using namespace dmt;
using namespace dmt::bench;

namespace
{

void
runMode(bool thp, JsonReport &json)
{
    std::printf("\n--- Figure 17%s: nested virtualization, %s ---\n",
                thp ? "b" : "a", thp ? "THP" : "4KB pages");
    Table table({"Workload", "PW speedup", "App speedup",
                 "refs base", "refs pvDMT", "coverage"});
    std::vector<double> walkAll, appAll;
    const double scale = scaleFromEnv();
    for (const auto &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, scale);
        const Calibration &cal = wl->calibration();
        const Outcome base = runIn(Env::Nested, *wl, Design::Vanilla, thp);
        auto wl2 = makeWorkload(name, scale);
        const Outcome pv = runIn(Env::Nested, *wl2, Design::PvDmt, thp);

        const double oBase = base.sim.overheadPerAccess();
        const double oPv = pv.sim.overheadPerAccess();
        const double walkSpeedup = oBase / oPv;
        // pvDMT eliminates shadow paging entirely (scale 0).
        const double tPv =
            modelExecTime(cal, Environment::NestedVirt, oBase, oPv,
                          /*removes_shadow=*/true,
                          /*shadow_exit_scale=*/0.0);
        const double appSpeedup =
            baselineTotal(cal, Environment::NestedVirt) / tPv;
        walkAll.push_back(walkSpeedup);
        appAll.push_back(appSpeedup);
        table.addRow({name, Table::num(walkSpeedup),
                      Table::num(appSpeedup),
                      Table::num(base.sim.meanSeqRefs(), 1),
                      Table::num(pv.sim.meanSeqRefs(), 1),
                      Table::num(pv.coverage * 100.0, 1) + "%"});
    }
    table.addRow({"Geo. Mean", Table::num(geoMean(walkAll)),
                  Table::num(geoMean(appAll)), "-", "-", "-"});
    table.print();
    json.addTable(std::string("fig17_pvdmt_") + (thp ? "thp" : "4k"),
                  table);
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport json(argc, argv, "fig17");
    printConfigBanner("Figure 17: pvDMT vs Vanilla Nested KVM");
    runMode(false, json);
    runMode(true, json);
    std::printf("\nPaper reference: 4KB — walk speedup ~1.02x (the "
                "baseline's shadow table keeps walks short) but app "
                "speedup 1.48x from eliminating VM exits; THP — walk "
                "1.11x, app 1.34x.\n");
    return 0;
}
