#!/usr/bin/env python3
"""Compare two benchmark records written by run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the two runs differ in cbs's build type, compiler or
pool size, or in workload or trace mode: their numbers are not comparable.
Otherwise prints how far the host control kernel moved, then every metric
of both runs with the relative change and which way is better (from
BENCHMARK.json's "better" for the rows it lists); exit 0. It makes no
pass/fail call on the numbers.
"""

import json
import os
import sys

# Context fields that must match for two records to be compared.
MUST_MATCH = ("build_type", "compiler", "pool_size", "workload", "trace")
# Fields reported when they differ, without refusing.
NOTED = ("flags", "nproc", "seed", "seconds", "git_sha", "source_digest", "cbs_env")
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")
# Recorded rows that BENCHMARK.json does not list and where higher is better.
HIGHER_IS_BETTER_EXTRA = ("sim_rt", "steps_per_s", "trials_per_s", "ops")


def directions():
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def mismatches(base, new):
    """Names of the MUST_MATCH context fields whose values differ."""
    return [k for k in MUST_MATCH if base["context"].get(k) != new["context"].get(k)]


def rows(base, new):
    """(name, unit, base value, new value, relative change) for shared metrics."""
    out = []
    b_all = {**base["result"]["metrics"], **base.get("extra", {})}
    n_all = {**new["result"]["metrics"], **new.get("extra", {})}
    for name in sorted(set(b_all) & set(n_all)):
        b, n = b_all[name]["value"], n_all[name]["value"]
        rel = (n - b) / abs(b) if b != 0 else float("nan")
        out.append((name, b_all[name]["unit"], b, n, rel))
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    bad = mismatches(base, new)
    if bad:
        for k in bad:
            print(f"compare.py: refusing: {k} differs: {base['context'].get(k)!r} vs "
                  f"{new['context'].get(k)!r}", file=sys.stderr)
        return 2
    for k in NOTED:
        if base["context"].get(k) != new["context"].get(k):
            print(f"note: {k}: {base['context'].get(k)!r} -> {new['context'].get(k)!r}")
    ref_b = base.get("extra", {}).get("host_ref_ms", {}).get("value")
    ref_n = new.get("extra", {}).get("host_ref_ms", {}).get("value")
    if ref_b and ref_n:
        # The host control kernel runs no cbs code: when it moves, the
        # host's speed moved, and operation times move with it.
        print(f"note: host control host_ref_ms {ref_b:.4g} -> {ref_n:.4g} ms "
              f"({100 * (ref_n - ref_b) / ref_b:+.2f} %)")
    better_of = directions()
    for name, unit, b, n, rel in rows(base, new):
        better = better_of.get(name, "higher" if name in HIGHER_IS_BETTER_EXTRA else "lower")
        print(f"{name:34s} {b:14.6g} -> {n:14.6g} {unit:12s} {100 * rel:+8.2f} %"
              f"  ({better} is better)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
