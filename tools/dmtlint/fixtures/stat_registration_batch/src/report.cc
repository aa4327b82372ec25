// Fixture: the registration surface — a different unit reads the
// result fields the accumulator mirrors, keeping them alive.
#include "loop.hh"

Counter
reportStrokes()
{
    const RunResult res = runLoop(4);
    return res.strokes + res.misses;
}
