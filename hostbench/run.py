#!/usr/bin/env python3
"""Host-time benchmark of the DMT simulator.

    python3 hostbench/run.py --workload setup|translate \
        --seed N --seconds N --trace 0|1

Builds hostbench/ (the dmt-hostbench probe plus the simulator library
from ../src) into $CARGO_TARGET_DIR/hostbench (default .bench_build),
runs the probe for --seconds, checks every simulated counter against
a reference, and prints one JSON result line last on stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones and writes a Chrome trace plus a self-time table under
.bench_out/trace/. README.md in this directory has the details.
"""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("setup", "translate")
U64_MAX = 2**64 - 1
PROBE_TIMEOUT_S = 170
OUT_DIR = ROOT / ".bench_out"

# BENCH_campaign.json is the reference of the setup workload's cells
# at the campaign's own base seed and config.
CAMPAIGN = ROOT / "BENCH_campaign.json"
CAMPAIGN_CONFIG = {"base_seed": 42, "scale_denominator": 256.0,
                   "warmup_accesses": 10000, "measure_accesses": 50000}
OUTCOME_KEYS = ("mechanism", "accesses", "l1_tlb_hits", "stlb_hits",
                "walks", "walk_cycles", "seq_refs", "parallel_refs",
                "fallbacks", "coverage", "shadow_exits", "hypercalls",
                "hypercall_cycles")

SETUP_SPANS = ("sim.testbed.construct_s", "core.attach_s",
               "workloads.setup_s", "sim.testbed.build_s",
               "workloads.trace_s")
LOOP_SPANS = ("sim.warmup_s", "sim.measure_s")
LAYER_SPANS = SETUP_SPANS + LOOP_SPANS + (
    "sim.testbed.teardown_s", "obs.finish_s", "host.node.construct_s",
    "host.node.run_s", "host.node.teardown_s")
LAYER_COUNTS = (
    "sim.loop_accesses", "sim.accesses", "sim.walks", "sim.fallbacks",
    "sim.seq_refs",
    "tlb.l1d.hits", "tlb.l1d.misses", "tlb.stlb.hits",
    "tlb.stlb.misses", "cache.l1d.hits", "cache.l1d.misses",
    "cache.l2.hits", "cache.l2.misses", "cache.llc.hits",
    "cache.llc.misses", "hierarchy.accesses",
    "hierarchy.memory_accesses", "pwc.guest.hits", "pwc.guest.misses",
    "pwc.nested.hits", "pwc.nested.misses", "dmt.requests",
    "dmt.direct", "dmt.fallbacks", "tea.migrations",
    "tea.migrated_table_pages", "tea.adopted_tables",
    "mapping.reconciles", "mapping.merges", "mapping.splits",
    "mem.frames_in_use", "obs.events", "obs.bytes", "host.rounds",
    "host.ctx_switches", "host.reg_loads", "host.reg_hits")

USAGE = ("usage: python3 hostbench/run.py --workload "
         "setup|translate --seed N --seconds N "
         "(1..3600) --trace 0|1 [--tiny] [--references FILE]")


def usage(why):
    print(f"run.py: {why}\n{USAGE}", file=sys.stderr)
    sys.exit(2)


def parse_uint(flag, tok, lo, hi):
    """Whole-token decimal in [lo, hi]; exit 2 with usage otherwise."""
    if not re.fullmatch(r"[0-9]+", tok) or not lo <= int(tok) <= hi:
        usage(f"{flag} expects an integer in [{lo}, {hi}], got '{tok}'")
    return int(tok)


def parse_args(argv):
    opts = {"tiny": False, "references": HERE / "references.json"}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag == "--tiny":
            opts["tiny"] = True
            i += 1
            continue
        if flag not in ("--workload", "--seed", "--seconds", "--trace",
                        "--references"):
            usage(f"unknown argument '{flag}'")
        if i + 1 >= len(argv):
            usage(f"{flag} needs a value")
        tok = argv[i + 1]
        i += 2
        if flag == "--workload":
            if tok not in WORKLOADS:
                usage(f"unknown workload '{tok}'")
            opts["workload"] = tok
        elif flag == "--seed":
            opts["seed"] = parse_uint(flag, tok, 0, U64_MAX)
        elif flag == "--seconds":
            opts["seconds"] = parse_uint(flag, tok, 1, 3600)
        elif flag == "--trace":
            opts["trace"] = parse_uint(flag, tok, 0, 1)
        else:
            opts["references"] = Path(tok)
    for need in ("workload", "seed", "seconds", "trace"):
        if need not in opts:
            usage(f"--{need} is required")
    return opts


def build():
    """Configure (once) and build the probe; return its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = (ROOT / target / "hostbench").resolve()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(bdir), "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            sys.exit(1)
    return bdir / "dmt-hostbench"


def probe(binary, args):
    """Run the probe; return its JSON document or exit 1."""
    try:
        proc = subprocess.run([str(binary), *args], capture_output=True,
                              text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: probe timed out", file=sys.stderr)
        sys.exit(1)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"run.py: probe exited {proc.returncode}", file=sys.stderr)
        sys.exit(1)
    return json.loads(proc.stdout)


def ref_set(workload, tiny):
    return workload + ("-tiny" if tiny else "")


def campaign_references():
    """The setup cells' reference outcomes from BENCH_campaign.json."""
    doc = json.loads(CAMPAIGN.read_text())
    if any(doc["config"].get(k) != v for k, v in CAMPAIGN_CONFIG.items()):
        return {}
    return {f"{c['env']}/{c['workload']}/{c['design']}":
            {"seed": c["seed"],
             "outcome": {k: c[k] for k in OUTCOME_KEYS}}
            for c in doc["cells"] if not c["thp"]}


def load_references(opts):
    refs = {}
    path = opts["references"]
    if path.exists():
        refs.update(json.loads(path.read_text())
                    .get(ref_set(opts["workload"], opts["tiny"]), {})
                    .get(str(opts["seed"]), {}))
    if (opts["workload"] == "setup" and not opts["tiny"] and
            opts["seed"] == CAMPAIGN_CONFIG["base_seed"]):
        refs.update(campaign_references())
    return refs


def ref_key(key):
    # node's standalone build of a tenant must match that tenant.
    return key.removesuffix(".standalone")


def mismatches(ref, got):
    """Differences of `got` from every group of `ref` it carries.

    `counters` come only from phase-split cells and `host` only from
    node tenants, so a node tenant and its standalone build each carry
    one of them; every other group must be present.
    """
    out = []
    for group in ref:
        if group not in got:
            if group not in ("counters", "host"):
                out.append(f"{group}: missing")
            continue
        want, have = ref[group], got[group]
        if not isinstance(want, dict):
            want, have = {"": want}, {"": have}
        for k in sorted(set(want) | set(have)):
            if want.get(k) != have.get(k):
                out.append(f"{group}.{k}: want {want.get(k)} "
                           f"got {have.get(k)}")
    return out


def check(doc, refs):
    """Oracle: (attempted, failed) over every cell/tenant of every pass."""
    attempted = failed = 0
    for n, p in enumerate(doc["passes"]):
        for key, got in p["results"].items():
            attempted += 1
            ref = refs.get(ref_key(key))
            bad = mismatches(ref, got) if ref else ["no reference"]
            if n == 0 and doc["event_mismatches"]:
                bad += [m for m in doc["event_mismatches"]
                        if m.startswith(key + ":")]
            if bad:
                failed += 1
                print(f"run.py: pass {n} {key}: " + "; ".join(bad[:4]),
                      file=sys.stderr)
    return attempted, failed


def median(values):
    return statistics.median(values) if values else 0.0


def span(p, name):
    return p["spans"].get(name, 0.0)


def end_to_end(doc):
    """The run's figures: medians over its (warm, untraced) passes."""
    passes = [p for p in doc["passes"] if not p["traced"]]
    return {
        "wall_s": (median([p["wall_s"] for p in passes]), "s"),
        "setup_s": (median([sum(span(p, s) for s in SETUP_SPANS)
                            for p in passes]), "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(doc):
    passes = doc["passes"]
    counts = doc["counts"]
    out = {name: (median([span(p, name) for p in passes]), "s")
           for name in LAYER_SPANS}
    loop = [sum(span(p, s) for s in LOOP_SPANS) for p in passes]
    out["sim.host_ns_per_access"] = (
        median([1e9 * ratio(t, counts["sim.loop_accesses"])
                for t in loop]),
        "ns")
    out["sim.host_ns_per_hierarchy_access"] = (
        median([1e9 * ratio(t, counts["hierarchy.accesses"])
                for t in loop]), "ns")
    for name in LAYER_COUNTS:
        out[name] = (counts.get(name, 0), "count")
    out["dmt.direct_ratio"] = (
        ratio(counts.get("dmt.direct", 0), counts.get("dmt.requests", 0)),
        "ratio")
    out["host.reg_hit_rate"] = (
        ratio(counts["host.reg_hits"],
              counts["host.reg_hits"] + counts["host.reg_loads"]),
        "ratio")
    traced = [p["wall_s"] for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"]]
    out["trace.overhead_s"] = (median(traced) - median(plain), "s")
    return out


def write_trace(doc, stem):
    """Chrome trace_event JSON plus a per-layer self-time table."""
    spans = doc["spans"]
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": f"dmt-hostbench {doc['workload']}"}}]
    child = [0.0] * len(spans)
    for s in spans:
        dur = s["end"] - s["start"]
        if s["parent"] >= 0:
            child[s["parent"]] += dur
        parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else ""
        events.append({"name": s["name"], "cat": "host", "ph": "X",
                       "pid": 1, "tid": 1, "ts": s["start"] * 1e6,
                       "dur": dur * 1e6,
                       "args": {"scope": s["scope"], "parent": parent}})
    selftime = {}
    for s, c in zip(spans, child):
        row = selftime.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s["end"] - s["start"]
        row[2] += s["end"] - s["start"] - c
    stem.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{stem}.trace.json").write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    total = sum(r[2] for r in selftime.values()) or 1.0
    lines = [f"{'layer':<26}{'spans':>7}{'total_s':>11}{'self_s':>11}"
             f"{'self%':>8}"]
    for name, (n, tot, own) in sorted(selftime.items(),
                                      key=lambda kv: -kv[1][2]):
        lines.append(f"{name:<26}{n:>7}{tot:>11.4f}{own:>11.4f}"
                     f"{100 * own / total:>7.1f}%")
    Path(f"{stem}.selftime.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines), file=sys.stderr)


def main(argv):
    opts = parse_args(argv)
    binary = build()
    args = ["--workload", opts["workload"], "--seed", str(opts["seed"]),
            "--seconds", str(opts["seconds"]),
            "--events-dir", str(OUT_DIR / "events")]
    if opts["trace"]:
        args.append("--trace")
    if opts["tiny"]:
        args += ["--tiny", "--passes", "2"]
    doc = probe(binary, args)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{opts['workload']}-seed{opts['seed']}.probe.json") \
        .write_text(json.dumps(doc))

    # Where no reference is recorded for this seed, the library's own
    # untimed drivers, run in the probe before its passes, are the
    # oracle.
    refs = load_references(opts)
    refs.update({k: v for k, v in doc["oracle"].items() if k not in refs})
    attempted, failed = check(doc, refs)

    if opts["trace"]:
        write_trace(doc, OUT_DIR / "trace" /
                    f"{opts['workload']}-seed{opts['seed']}")
        metrics = per_layer(doc)
    else:
        metrics = end_to_end(doc)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
