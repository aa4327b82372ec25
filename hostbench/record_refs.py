#!/usr/bin/env python3
"""Record oracle references for hostbench/run.py.

    python3 hostbench/record_refs.py --workload translate --seeds 0-10

For each seed, runs the probe for one phase-split pass. The probe
runs the library's own untimed drivers (driver::runCell,
host::runNodeSweep) before it, and the two must agree on
every outcome field; the stored entry is the drivers' outcome plus
the pass's translation counters (the .dmtevents footer set, which
runCell only writes into an event file). Entries are merged into
hostbench/references.json (or --references FILE).
"""

import json
import sys
from pathlib import Path

import run


def parse_seeds(tok):
    lo, _, hi = tok.partition("-")
    lo = run.parse_uint("--seeds", lo, 0, run.U64_MAX)
    hi = run.parse_uint("--seeds", hi, lo, run.U64_MAX) if hi else lo
    return range(lo, hi + 1)


def main(argv):
    opts = {"tiny": False, "references": run.HERE / "references.json"}
    i = 0
    while i < len(argv):
        if argv[i] == "--tiny":
            opts["tiny"] = True
            i += 1
            continue
        if i + 1 >= len(argv):
            run.usage(f"{argv[i]} needs a value")
        flag, tok = argv[i], argv[i + 1]
        i += 2
        if flag == "--workload" and tok in run.WORKLOADS:
            opts["workload"] = tok
        elif flag == "--seeds":
            opts["seeds"] = parse_seeds(tok)
        elif flag == "--references":
            opts["references"] = Path(tok)
        else:
            run.usage(f"bad argument '{flag} {tok}'")
    if "workload" not in opts or "seeds" not in opts:
        run.usage("--workload and --seeds are required")

    binary = run.build()
    path = opts["references"]
    refs = json.loads(path.read_text()) if path.exists() else {}
    table = refs.setdefault(run.ref_set(opts["workload"], opts["tiny"]),
                            {})
    for seed in opts["seeds"]:
        args = ["--workload", opts["workload"], "--seed", str(seed),
                "--seconds", "1", "--passes", "1",
                "--events-dir", str(run.OUT_DIR / "events")]
        if opts["tiny"]:
            args.append("--tiny")
        doc = run.probe(binary, args)
        oracle = doc["oracle"]
        split = doc["passes"][0]["results"]
        for key, got in split.items():
            bad = run.mismatches(oracle[run.ref_key(key)], got)
            if bad:
                sys.exit(f"record_refs.py: seed {seed} {key}: phase-split "
                         f"pass disagrees with the library's driver: "
                         f"{bad[:4]}")
        entry = dict(oracle)
        for key, got in split.items():
            if "counters" in got:
                ref = run.ref_key(key)
                entry[ref] = dict(entry[ref], counters=got["counters"])
        table[str(seed)] = entry
        print(f"record_refs.py: {opts['workload']} seed {seed}: "
              f"{len(entry)} entries", file=sys.stderr)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
