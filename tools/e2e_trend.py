#!/usr/bin/env python3
"""Condense a dmt-campaign timing sidecar into the BENCH_e2e.json trend.

    python3 tools/e2e_trend.py TIMING_JSON [--out BENCH_e2e.json]
    python3 tools/e2e_trend.py --selftest

TIMING_JSON is what `dmt-campaign --timing-json FILE` writes
(dmt-campaign-timing-v1). The trend file (dmt-e2e-v1) keeps the three
end-to-end numbers tracked from change to change:

- campaign_wall_seconds: the wall clock of the whole campaign;
- total_cell_seconds: the cells' wall clocks summed, i.e. the work a
  single thread would do;
- critical_path_cell: the slowest cell. No thread count can bring the
  campaign wall below it.

Exit status: 0 on success, 1 on a malformed timing file, 2 on usage.
"""

import argparse
import json
import sys

SOURCE_SCHEMA = "dmt-campaign-timing-v1"
SCHEMA = "dmt-e2e-v1"
CELL_KEYS = ("env", "workload", "design", "thp", "wall_seconds")


class TimingError(Exception):
    """The timing document is not a dmt-campaign-timing-v1 sidecar."""


def _number(doc, key):
    value = doc.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or value < 0:
        raise TimingError(f"'{key}' must be a non-negative number")
    return value


def trend(timing):
    """Return the dmt-e2e-v1 document for one timing sidecar."""
    if not isinstance(timing, dict):
        raise TimingError("top level must be a JSON object")
    if timing.get("schema") != SOURCE_SCHEMA:
        raise TimingError(f"schema is {timing.get('schema')!r}, "
                          f"expected {SOURCE_SCHEMA!r}")
    cells = timing.get("cells")
    if not isinstance(cells, list) or not cells:
        raise TimingError("'cells' must be a non-empty list")
    for cell in cells:
        if not isinstance(cell, dict) or \
                any(k not in cell for k in CELL_KEYS):
            raise TimingError(f"each cell needs {', '.join(CELL_KEYS)}")
        _number(cell, "wall_seconds")
    # Ties go to the first cell in report order (the sidecar's cells
    # are sorted), so the same timings always name the same cell.
    critical = max(cells, key=lambda c: c["wall_seconds"])
    wall = _number(timing, "campaign_wall_seconds")
    return {
        "schema": SCHEMA,
        "source_schema": SOURCE_SCHEMA,
        "threads": _number(timing, "threads"),
        "config": timing.get("config", {}),
        "cells": len(cells),
        "campaign_wall_seconds": round(wall, 3),
        "total_cell_seconds": round(_number(timing,
                                            "total_cell_seconds"), 3),
        "critical_path_cell": {
            **{k: critical[k] for k in CELL_KEYS[:4]},
            "wall_seconds": round(critical["wall_seconds"], 3),
        },
    }


def selftest():
    """Check the condensing and the rejections on synthetic input."""
    cell = {"env": "native", "workload": "GUPS", "design": "dmt",
            "thp": False, "wall_seconds": 1.25, "accesses_per_sec": 1.0}
    slow = dict(cell, env="nested", wall_seconds=4.0)
    tie = dict(cell, env="virt", wall_seconds=4.0)
    doc = {"schema": SOURCE_SCHEMA, "threads": 4,
           "campaign_wall_seconds": 4.56789, "config": {"base_seed": 42},
           "cells": [cell, slow, tie], "total_cell_seconds": 9.25}
    out = trend(doc)
    assert out["schema"] == SCHEMA, out
    assert out["cells"] == 3, out
    assert out["campaign_wall_seconds"] == 4.568, out
    assert out["total_cell_seconds"] == 9.25, out
    assert out["critical_path_cell"]["env"] == "nested", out
    assert out["config"] == {"base_seed": 42}, out
    bad = [
        [],
        dict(doc, schema="dmt-campaign-v1"),
        dict(doc, cells=[]),
        dict(doc, cells=[{"env": "native"}]),
        dict(doc, cells=[dict(cell, wall_seconds="1")]),
        dict(doc, campaign_wall_seconds=-1.0),
        {k: v for k, v in doc.items() if k != "total_cell_seconds"},
    ]
    for case in bad:
        try:
            trend(case)
        except TimingError:
            continue
        raise AssertionError(f"accepted malformed input: {case!r}")
    print("e2e_trend selftest: ok")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Condense a dmt-campaign timing sidecar into "
                    "BENCH_e2e.json.")
    parser.add_argument("timing", nargs="?",
                        help="dmt-campaign --timing-json output")
    parser.add_argument("--out", default="BENCH_e2e.json",
                        help="trend file to write (default %(default)s)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.timing is None:
        parser.error("TIMING_JSON is required")
    try:
        with open(args.timing, encoding="utf-8") as f:
            doc = trend(json.load(f))
    except (OSError, ValueError, TimingError) as err:
        print(f"e2e_trend: {args.timing}: {err}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
