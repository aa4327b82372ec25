/**
 * @file
 * Figure 16 — breakdown of nested page-table walks for Redis: the
 * average cycles spent on each of the 24 logical PTE slots of the
 * 2-D walk (Figure 2), and each slot's share of the mean walk
 * latency, for the vanilla KVM baseline and for pvDMT (which touches
 * only the two leaf slots), with 4 KB pages and with THP.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace dmt;
using namespace dmt::bench;

namespace
{

/** Label of a Figure 2 slot (1-24). */
std::string
slotLabel(int slot)
{
    if (slot >= 21)
        return "hL" + std::to_string(4 - (slot - 21));
    const int group = (slot - 1) / 5;   // 0 -> gL4 ... 3 -> gL1
    const int inGroup = (slot - 1) % 5; // 0..3 host, 4 guest
    if (inGroup == 4)
        return "gL" + std::to_string(4 - group);
    return "hL" + std::to_string(4 - inGroup);
}

void
printBreakdown(const char *title, const SimResult &res,
               const std::string &json_name, JsonReport &json)
{
    Table table({"slot", "PTE", "avg cycles", "share %"});
    std::printf("\n%s (mean walk latency %.1f cycles, %llu walks)\n",
                title, res.meanWalkLatency(),
                static_cast<unsigned long long>(res.walks));
    std::printf("  %-5s %-5s %12s %8s\n", "slot", "PTE", "avg cycles",
                "share");
    const double walks = static_cast<double>(res.walks);
    const double meanLat = res.meanWalkLatency();
    for (int slot = 1; slot <= 24; ++slot) {
        auto it = res.stepCosts.find({'s', slot});
        double avg = 0.0;
        if (it != res.stepCosts.end() && walks > 0)
            avg = it->second.first / walks;
        const double share = meanLat > 0 ? avg / meanLat : 0.0;
        if (avg == 0.0)
            continue;
        std::printf("  %-5d %-5s %12.2f %7.1f%%\n", slot,
                    slotLabel(slot).c_str(), avg, share * 100.0);
        table.addRow({std::to_string(slot), slotLabel(slot),
                      Table::num(avg), Table::num(share * 100.0, 1)});
    }
    json.addTable(json_name, table);
}

void
runMode(bool thp, JsonReport &json)
{
    const std::string suffix = thp ? "thp" : "4k";
    std::printf("\n=== Figure 16%s: Redis, %s ===\n", thp ? "b" : "a",
                thp ? "2M huge pages (THP)" : "4KB base pages");
    const double scale = scaleFromEnv();
    {
        auto wl = makeWorkload("Redis", scale);
        const Outcome base =
            runIn(Env::Virt, *wl, Design::Vanilla, thp, 42, true);
        printBreakdown("Vanilla KVM nested walk", base.sim,
                       "fig16_vanilla_" + suffix, json);
    }
    {
        auto wl = makeWorkload("Redis", scale);
        const Outcome pv = runIn(Env::Virt, *wl, Design::PvDmt, thp, 42, true);
        printBreakdown("pvDMT (fetches only the two leaf PTEs)",
                       pv.sim, "fig16_pvdmt_" + suffix, json);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    JsonReport json(argc, argv, "fig16");
    printConfigBanner("Figure 16: per-PTE breakdown of nested page "
                      "walks (Redis)");
    runMode(false, json);
    runMode(true, json);
    std::printf("\nPaper reference: the two leaf slots (gL1 and the "
                "final hL1; gL2/hL2 with THP) dominate walk latency; "
                "pvDMT's two fetches retain ~66%% (4KB) / ~71%% (THP) "
                "of the baseline's per-walk cost while skipping the "
                "other 22 references.\n");
    return 0;
}
