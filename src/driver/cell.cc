#include "driver/cell.hh"

#include "common/log.hh"
#include "driver/campaign.hh"
#include "obs/event_log.hh"
#include "obs/replay.hh"

namespace dmt
{
namespace driver
{

namespace
{

// What differs between the environments, one overload per testbed.
// Only valid designs get here: native DMT is never pv, nested DMT
// is always cascaded pvDMT.

void attach(NativeTestbed &tb, bool) { tb.attachDmt(); }
void attach(VirtTestbed &tb, bool pv) { tb.attachDmt(pv); }
void attach(NestedTestbed &tb, bool) { tb.attachPvDmt(); }

DmtRegisterFile &archRegsOf(NativeTestbed &tb) { return tb.registers(); }
DmtRegisterFile &archRegsOf(VirtTestbed &tb) { return tb.guestRegisters(); }
DmtRegisterFile &archRegsOf(NestedTestbed &tb) { return tb.registers(); }

const ShadowPager *shadowOf(NativeTestbed &) { return nullptr; }
const ShadowPager *shadowOf(VirtTestbed &tb) { return tb.shadowPager(); }
const ShadowPager *shadowOf(NestedTestbed &tb) { return tb.shadowPager(); }

/** The hypercall surface the workload's guest kernel calls. */
TeaHypercall *hypercallOf(NativeTestbed &) { return nullptr; }
TeaHypercall *hypercallOf(VirtTestbed &tb) { return tb.hypercall(); }
NestedTeaHypercall *hypercallOf(NestedTestbed &tb) { return tb.l2Hypercall(); }

} // namespace

Cell::Cell(Workload &workload, CampaignEnv env, Design design,
           const TestbedConfig &config, std::uint64_t seed,
           std::unique_ptr<TraceSource> trace)
{
    if (!designValidIn(env, design))
        fatal("design %s is not modelled in the %s environment",
              designId(design).c_str(), envId(env).c_str());
    const Addr footprint = workload.footprintBytes();
    switch (env) {
      case CampaignEnv::Native:
        tb_ = std::make_unique<NativeTestbed>(footprint, config);
        break;
      case CampaignEnv::Virt:
        tb_ = std::make_unique<VirtTestbed>(footprint, config);
        break;
      case CampaignEnv::Nested:
        tb_ = std::make_unique<NestedTestbed>(footprint, config);
        break;
    }
    std::visit(
        [&](auto &tb) {
            // DMT state goes in before the workload maps anything, so
            // every VMA gets its TEA as it is created.
            if (design == Design::Dmt || design == Design::PvDmt)
                attach(*tb, design == Design::PvDmt);
            workload.setup(tb->proc());
            mech_ = &tb->build(design);
            trace_ = trace ? std::move(trace) : workload.trace(seed);
            sim_ = std::make_unique<TranslationSimulator>(
                *mech_, tb->tlbs(), tb->caches());
        },
        tb_);
}

Cell::~Cell() = default;

TlbHierarchy &
Cell::tlbs()
{
    return std::visit(
        [](auto &tb) -> TlbHierarchy & { return tb->tlbs(); }, tb_);
}

DmtRegisterFile &
Cell::archRegs()
{
    return std::visit(
        [](auto &tb) -> DmtRegisterFile & { return archRegsOf(*tb); },
        tb_);
}

void
Cell::attachAuditor(InvariantAuditor &auditor)
{
    std::visit([&](auto &tb) { tb->attachAuditor(auditor); }, tb_);
}

void
Cell::translationStats(StatGroup &g)
{
    std::visit([&](auto &tb) { tb->translationStats(g); }, tb_);
}

void
Cell::beginEvents(const std::string &path)
{
    sink_ = std::make_unique<obs::FileEventSink>(path);
    StatGroup before("before");
    translationStats(before);
    before_ = obs::counterMapFromStats(before);
    sim_->setEventSink(sink_.get());
}

std::uint64_t
Cell::finishEvents(const SimResult &result)
{
    if (!sink_)
        return 0;
    sim_->setEventSink(nullptr);
    StatGroup after("after");
    translationStats(after);
    obs::CounterMap counters =
        obs::diffCounters(before_, obs::counterMapFromStats(after));
    obs::addSimResultCounters(counters, result);
    sink_->setCounters(counters);
    sink_->finish();
    return sink_->eventCount();
}

void
Cell::readout(CellReadout &out)
{
    out.design = mech_->name();
    std::visit(
        [&](auto &tb) {
            if (tb->dmtFetcher())
                out.coverage = tb->dmtFetcher()->stats().coverage();
            if (const ShadowPager *shadow = shadowOf(*tb))
                out.shadowExits = shadow->exits();
            if (auto *hc = hypercallOf(*tb)) {
                out.hypercalls = hc->hypercalls();
                out.hypercallCycles = hc->simulatedCost();
            }
        },
        tb_);
}

} // namespace driver
} // namespace dmt
