// Fixture: per-chunk accumulator structs (a loop that folds local
// counters into its result). A *Stats struct whose Counter fields
// mirror a result struct one-to-one is folded into that result inside
// its own unit; the mirrored field names are read by consumers of the
// *result*, which is exactly the registration surface the rule wants
// — the accumulator itself must not be flagged. A scratch field with
// no mirrored consumer stays a violation.
#ifndef DMT_LOOP_HH
#define DMT_LOOP_HH

#include <cstdint>

using Counter = std::uint64_t;

/** Result of a run; consumers read these fields (see report.cc). */
struct RunResult
{
    Counter strokes = 0;
    Counter misses = 0;
};

/** Per-chunk accumulator, folded into RunResult once per chunk. */
struct LoopChunkStats
{
    Counter strokes = 0;  //!< folded + read via RunResult: fine
    Counter misses = 0;   //!< folded + read via RunResult: fine
    Counter scratchTicks = 0;  // want: stat-registration
};

RunResult runLoop(Counter chunks);

#endif // DMT_LOOP_HH
