// Fixture: the fold site lives in the accumulator's own unit — on
// its own it would NOT keep the fields alive; the consumer of the
// mirrored RunResult fields (report.cc) does.
#include "loop.hh"

RunResult
runLoop(Counter chunks)
{
    RunResult out;
    for (Counter i = 0; i < chunks; ++i) {
        LoopChunkStats chunk;
        chunk.strokes += i;
        chunk.misses += 1;
        chunk.scratchTicks += 2;
        out.strokes += chunk.strokes;
        out.misses += chunk.misses;
    }
    return out;
}
