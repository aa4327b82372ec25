/**
 * @file
 * Checked flag values for the command-line drivers (dmtsim,
 * dmt-campaign, dmt-node, dmt-microbench) and the bench binaries'
 * DMT_BENCH_* environment knobs.
 *
 * A numeric value is accepted only if the whole token parses and lies
 * in range. Anything else — "12abc", "-5", "", "0" where at least 1 is
 * required — prints a diagnostic naming the flag to stderr and exits
 * 2 through the binary's usage(), so a typo never silently runs a
 * different simulation.
 */

#ifndef DMT_DRIVER_CLI_HH
#define DMT_DRIVER_CLI_HH

#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "driver/campaign.hh"

namespace dmt
{
namespace driver
{

/** A binary's usage(): prints the usage text and exits 2. */
using UsageFn = void (*)(const char *argv0);

/** Upper bound of access-count flags, so warmup + measure fits. */
inline constexpr std::uint64_t kMaxFlagAccesses = std::uint64_t{1} << 40;

/** Upper bound of --threads: past any host, small enough to spawn. */
inline constexpr std::uint64_t kMaxFlagThreads = 1024;

/** No upper bound beyond what a 64-bit value holds. */
inline constexpr std::uint64_t kNoFlagMax =
    std::numeric_limits<std::uint64_t>::max();

/**
 * Parse `token`, the value of `flag`, as a whole-token unsigned
 * decimal in [lo, hi]. On failure prints the diagnostic and calls
 * `usage(argv0)`; does not return then.
 */
std::uint64_t parseUintFlag(const char *argv0, const std::string &flag,
                            const std::string &token, std::uint64_t lo,
                            std::uint64_t hi, UsageFn usage);

/**
 * Parse `token`, the value of the scale denominator `flag` (a finite
 * number N > 0, e.g. 64 for 1/64 of the paper's working sets), and
 * return the scale 1/N. On failure prints the diagnostic and calls
 * `usage(argv0)`.
 */
double parseScaleFlag(const char *argv0, const std::string &flag,
                      const std::string &token, UsageFn usage);

/**
 * Resolve an --env / --design token pair, accepting only a design
 * modelled in that environment (validDesigns). On failure prints the
 * diagnostic and calls `usage(argv0)`.
 */
std::pair<CampaignEnv, Design> parseCellFlags(const char *argv0,
                                              const std::string &env,
                                              const std::string &design,
                                              UsageFn usage);

} // namespace driver
} // namespace dmt

#endif // DMT_DRIVER_CLI_HH
