#!/usr/bin/env python3
"""Self-test of the host-time benchmark.

    python3 hostbench/selftest.py

Runs every workload once at the --tiny size, traced and untraced, and
checks that each metric BENCHMARK.json names is emitted with its unit
and that the oracle passes. Then records references for one seed,
alters one counter in a copy, and checks that the run reports a
failed cell instead of passing. Finally checks that malformed
arguments exit 2 without a result. Exit 0 when everything holds.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, file=sys.stderr)
    if not cond:
        failures.append(what)


def bench(*args):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"),
                           *args], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, result


def check_metrics(result, spec, what):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{what}: metric names and units match "
                        "BENCHMARK.json")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        none = Path(tmp) / "none.json"   # no references: oracle path
        for w in SPEC["workloads"]:
            name = w["name"]
            for trace, spec in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
                what = f"{name} --trace {trace}"
                code, res = bench("--workload", name, "--seed", "5",
                                  "--seconds", "1", "--trace", str(trace),
                                  "--tiny", "--references", str(none))
                expect(code == 0 and res is not None, f"{what}: runs")
                if res is None:
                    continue
                expect(res["correct"] and res["failed"] == 0 and
                       res["attempted"] >= 1, f"{what}: oracle passes")
                check_metrics(res, spec, what)

        refs = Path(tmp) / "refs.json"
        subprocess.run([sys.executable, str(run.HERE / "record_refs.py"),
                        "--workload", "translate", "--seeds", "5",
                        "--tiny", "--references", str(refs)], check=True)
        args = ["--workload", "translate", "--seed", "5", "--seconds",
                "1", "--trace", "0", "--tiny", "--references"]
        code, res = bench(*args, str(refs))
        expect(code == 0 and res and res["correct"],
               "recorded references pass")
        doc = json.loads(refs.read_text())
        doc["translate-tiny"]["5"]["native/GUPS/dmt"]["counters"][
            "sim.walks"] += 1
        bad = Path(tmp) / "bad.json"
        bad.write_text(json.dumps(doc))
        code, res = bench(*args, str(bad))
        expect(code == 0 and res and not res["correct"] and
               res["failed"] >= 1,
               "an altered reference counter is a failed cell")

    for argv in (["--seed", "12abc"], ["--seconds", "-5"],
                 ["--workload", "bogus"], ["--trace", "2"]):
        full = {"--workload": "translate", "--seed": "1",
                "--seconds": "1", "--trace": "0"}
        full[argv[0]] = argv[1]
        code, res = bench(*[x for kv in full.items() for x in kv])
        expect(code == 2 and res is None,
               f"{' '.join(argv)} exits 2 without a result")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
