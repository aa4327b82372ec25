/**
 * @file
 * File-backed traces: record any TraceSource to a compact binary
 * file and replay it later. This is the bridge for users who have
 * *real* traces (the paper used DynamoRIO): convert them to the
 * trivial on-disk format (little-endian u64 VAs after a 16-byte
 * header) and feed them to the simulator.
 *
 * Format:
 *   bytes 0-7 : magic "DMTTRACE"
 *   bytes 8-15: u64 count
 *   then      : count x u64 virtual addresses
 */

#ifndef DMT_WORKLOADS_TRACE_FILE_HH
#define DMT_WORKLOADS_TRACE_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/translation_sim.hh"

namespace dmt
{

/** Record `count` addresses from a source into a trace file. */
void recordTrace(TraceSource &source, std::uint64_t count,
                 const std::string &path);

/** Replays a recorded trace file, looping at the end. */
class FileTrace : public TraceSource
{
  public:
    explicit FileTrace(const std::string &path);

    Addr next() override;

    std::uint64_t size() const { return addrs_.size(); }

  private:
    std::vector<Addr> addrs_;
    std::size_t cursor_ = 0;
};

} // namespace dmt

#endif // DMT_WORKLOADS_TRACE_FILE_HH
