/**
 * @file
 * One (workload, environment, design) cell, built and ready to run.
 *
 * The paper's three environments attach DMT state differently:
 * native TEAs, pvDMT through KVM_HC_ALLOC_TEA, cascaded pvDMT under
 * nesting. A Cell is the one place that knows this. It constructs
 * the testbed, attaches DMT state for the DMT designs (before the
 * workload maps memory), runs Workload::setup, builds the design,
 * opens the trace and wires a TranslationSimulator. driver::runCell,
 * host::HostNode tenants and dmtsim all build through it:
 *
 *   Cell cell(workload, env, design, tb_config, seed);
 *   cell.beginEvents(path);            // optional .dmtevents capture
 *   SimResult res = cell.sim().run(cell.trace(), sim_config);
 *   cell.finishEvents(res);            // footer = this run's deltas
 *   cell.readout(outcome);             // mechanism name, coverage...
 */

#ifndef DMT_DRIVER_CELL_HH
#define DMT_DRIVER_CELL_HH

#include <memory>
#include <string>
#include <variant>

#include "obs/event.hh"
#include "sim/testbed.hh"
#include "sim/translation_sim.hh"
#include "workloads/workloads.hh"

namespace dmt
{

namespace obs
{
class FileEventSink;
}

namespace driver
{

enum class CampaignEnv;  // campaign.hh

/** What a finished cell reports beside its SimResult. */
struct CellReadout
{
    double coverage = 1.0;    //!< DMT register coverage (if any)
    Counter shadowExits = 0;  //!< shadow pager sync count (if any)
    Counter hypercalls = 0;
    Cycles hypercallCycles = 0;
    std::string design;       //!< mechanism display name
};

/** A constructed cell: testbed, mechanism, trace and simulator. */
class Cell
{
  public:
    /**
     * Build the cell. The trace is `workload.trace(seed)` unless the
     * caller supplies one (a recorded trace file). fatal() if the
     * design is not modelled in `env` (see validDesigns). The
     * workload must outlive the cell.
     */
    Cell(Workload &workload, CampaignEnv env, Design design,
         const TestbedConfig &config, std::uint64_t seed,
         std::unique_ptr<TraceSource> trace = nullptr);
    ~Cell();

    Cell(const Cell &) = delete;
    Cell &operator=(const Cell &) = delete;

    TranslationSimulator &sim() { return *sim_; }
    TraceSource &trace() { return *trace_; }
    TranslationMechanism &mech() { return *mech_; }
    TlbHierarchy &tlbs();

    /** The architectural (task-state) DMT register file: the
     *  guest-most level's file in every environment. */
    DmtRegisterFile &archRegs();

    /** Register every testbed structure with the auditor, which
     *  must outlive the cell. */
    void attachAuditor(InvariantAuditor &auditor);

    /**
     * Capture every simulated access to a .dmtevents file at `path`.
     * Snapshots the translation counters the footer is diffed from,
     * so nothing the testbed did before the run can skew the file's
     * self-verification (tools/events_check).
     */
    void beginEvents(const std::string &path);

    /**
     * Write the footer (counter deltas since beginEvents plus
     * `result`'s counters) and close the file. A no-op without
     * beginEvents. @return the number of events written.
     */
    std::uint64_t finishEvents(const SimResult &result);

    /** Read the mechanism-side outcome fields into `out`. */
    void readout(CellReadout &out);

  private:
    void translationStats(StatGroup &g);

    std::variant<std::unique_ptr<NativeTestbed>,
                 std::unique_ptr<VirtTestbed>,
                 std::unique_ptr<NestedTestbed>>
        tb_;
    TranslationMechanism *mech_ = nullptr;
    std::unique_ptr<TraceSource> trace_;
    std::unique_ptr<obs::FileEventSink> sink_;
    obs::CounterMap before_;
    // Last: destroyed first, while the sink it may point at lives.
    std::unique_ptr<TranslationSimulator> sim_;
};

} // namespace driver
} // namespace dmt

#endif // DMT_DRIVER_CELL_HH
