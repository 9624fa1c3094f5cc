#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json reports, ignoring wall-clock.

Usage: scripts/compare_bench.py BASELINE_DIR CANDIDATE_DIR [--ignore KEY]...
       scripts/compare_bench.py --e13-gate BENCH_e13.json [--min-ratio R]
       scripts/compare_bench.py --e14-gate BENCH_e14.json [--min-ratio R]
       scripts/compare_bench.py --e15-gate BENCH_e15.json

The directory mode is what `BENCH_baseline/` is for: a check of the
reports' DETERMINISTIC SKELETON -- grids, counts, bounds, verdicts,
certificates -- and nothing else. Measured numbers are not compared
here at all; they are tracked by `benchmark/` and its `--compare`
against a same-host run. CI regenerates the reports and runs this in
the `experiments` job (EXPERIMENTS.md, "The skeleton check", has the
command lines: the quick suite at `--threads 1`, `explore --quick` on
its default thread grid, full E13/E14, quick E15).

Every experiment in this repo is seeded, so a regenerated report must
equal the archived baseline once the keys that are not a function of
the seed are stripped (recursively): the wall-clock keys
`wall_clock_secs`, `wall_secs`, `runs_per_sec`, `speedup`; E6's
`replayed_steps` / `replay_ratio` (see VOLATILE for why); the
percentiles of E4's `metric: "micros"` distribution rows, which time
native threads; plus any `--ignore KEY` extras.

E13/E14/E15 (the native register-file scaling, flight-recorder overhead
and serving-layer grids) are the wall-clock experiments: their measured
columns (`ops_per_sec`, the latency percentiles, the buffered tier's
`read_retries`, E14's flight-log counts, E15's reconnect and span
counts, and the whole `gates` / `spot_check` sections) are stripped
too, so the directory comparison still checks the deterministic
skeleton -- the thread grid, the object x tier/mode matrix, and the
operation counts.

`--e13-gate` instead checks one report's performance *relations*, which
are machine-speed-independent: the packed counter must beat the
rwlock baseline counter at 8 threads by at least `--min-ratio` (default
1.0), and — only when the report's `available_parallelism` exceeds 1 —
8-thread packed-counter throughput must exceed 1-thread throughput.

`--e14-gate` checks the flight-recorder overhead and spot-check gates:
1-in-64 sampling must keep at least `--min-ratio` (default 0.95) of
recorder-off counter throughput summed across the thread grid, every
spot-checked native history must be linearizable (with at least one
history checked), and the spot-check runs must have dropped no events.

`--e15-gate` checks the serving-layer SLO + audit gates: worst-case op
latency percentiles across the grid inside their budgets
(`slo_within_budget`), the offline audit sound (at least one history,
zero recorder drops) and clean (every sampled history linearizable),
and every crash scenario survived (`crash_survivors_completed`: the
killed tenant reconnected and all tenants finished their budgets).

Exit status: 0 if every common file matches (or the gate holds),
1 otherwise. Files present on only one side are reported but only fail
the comparison when missing from the candidate.
"""

import json
import sys
from pathlib import Path

VOLATILE = {
    "wall_clock_secs",
    "wall_secs",
    "runs_per_sec",
    "speedup",
    # E6 explores two budget-capped trees (snapshot, Afek) with several
    # workers: which runs fall inside the run cap depends on worker
    # timing, and the parallel explorer promises bit-identical counters
    # on exhaustion only (21 979 archived vs 21 966-21 976 run to run).
    # Exact at `--threads 1`, which is how the skeleton check runs E6:
    # `executed_steps` is deliberately still compared -- it is exact
    # for the exhausted trees at any thread count, but the Afek row's
    # (runs of unequal length) also moves with more than one worker.
    "replayed_steps",
    "replay_ratio",
    # E13's measured columns (everything wall-clock- or machine-derived).
    "elapsed_secs",
    "ops_per_sec",
    "p50_ns",
    "p99_ns",
    "p999_ns",
    "max_ns",
    "mean_ns",
    "read_retries",
    "gates",
    # E14's flight-log columns (event volume depends on timing once
    # drop-oldest engages) and the spot-check verdict section.
    "ticket_draws",
    "events_recorded",
    "events_drained",
    "events_dropped",
    "retry_events",
    "contended_draws",
    "sampled_spans",
    "spot_check",
    # E15's timing-dependent columns: when the killed tenant dies and
    # how often it has to retry the reconnect both depend on scheduling.
    "crash_reconnects",
    "audit_spans",
}


def e13_gate(path, min_ratio):
    """Check the E13 gate relations in one report. Returns exit status."""
    with open(path) as f:
        doc = json.load(f)
    gates = doc.get("gates")
    if not gates:
        print(f"FAIL     {path}: no 'gates' section")
        return 1
    parallelism = gates.get("available_parallelism", 1)
    ratio = gates.get("packed_over_rwlock_8t")
    if ratio is None:
        print(f"FAIL     {path}: packed_over_rwlock_8t missing (null?)")
        return 1
    failed = False
    if ratio >= min_ratio:
        print(f"OK       packed/rwlock at 8 threads = {ratio:.2f}x "
              f"(>= {min_ratio})")
    else:
        print(f"FAIL     packed/rwlock at 8 threads = {ratio:.2f}x "
              f"(< {min_ratio})")
        failed = True
    scaling = gates.get("packed_8t_over_1t")
    if parallelism <= 1:
        print(f"SKIP     8t/1t scaling gate (available_parallelism = "
              f"{parallelism})")
    elif scaling is None:
        print(f"FAIL     {path}: packed_8t_over_1t missing (null?)")
        failed = True
    elif scaling > 1.0:
        print(f"OK       packed 8t/1t = {scaling:.2f}x on "
              f"{parallelism}-way host")
    else:
        print(f"FAIL     packed 8t/1t = {scaling:.2f}x on "
              f"{parallelism}-way host (expected > 1)")
        failed = True
    return 1 if failed else 0


def e14_gate(path, min_ratio):
    """Check the E14 overhead and spot-check gates. Returns exit status."""
    with open(path) as f:
        doc = json.load(f)
    gates = doc.get("gates")
    if not gates:
        print(f"FAIL     {path}: no 'gates' section")
        return 1
    failed = False
    ratio = gates.get("sampled_over_off_counter")
    if ratio is None:
        print(f"FAIL     {path}: sampled_over_off_counter missing (null?)")
        failed = True
    elif ratio >= min_ratio:
        print(f"OK       sampled/off counter throughput = {ratio:.3f} "
              f"(>= {min_ratio})")
    else:
        print(f"FAIL     sampled/off counter throughput = {ratio:.3f} "
              f"(< {min_ratio}: 1-in-64 sampling costs too much)")
        failed = True
    histories = gates.get("spotcheck_histories", 0)
    if histories > 0:
        print(f"OK       spot-check covered {histories} histories")
    else:
        print(f"FAIL     spot-check covered no histories")
        failed = True
    dropped = gates.get("spotcheck_dropped")
    if dropped == 0:
        print(f"OK       spot-check runs dropped no events")
    else:
        print(f"FAIL     spot-check runs dropped {dropped} events "
              f"(histories incomplete)")
        failed = True
    if gates.get("spotcheck_all_linearizable") is True:
        print(f"OK       every spot-checked native history linearizable")
    else:
        print(f"FAIL     spot-check found a non-linearizable history "
              f"(see the report's spot_check.failures)")
        failed = True
    return 1 if failed else 0


def e15_gate(path, min_ratio):
    """Check the E15 SLO + audit gates. Returns exit status."""
    del min_ratio  # the SLO budgets live in the report itself
    with open(path) as f:
        doc = json.load(f)
    gates = doc.get("gates")
    if not gates:
        print(f"FAIL     {path}: no 'gates' section")
        return 1
    failed = False
    if gates.get("slo_within_budget") is True:
        print(f"OK       SLO within budget: worst p50/p99/p999 = "
              f"{gates.get('worst_p50_ns')}/{gates.get('worst_p99_ns')}/"
              f"{gates.get('worst_p999_ns')} ns")
    else:
        print(f"FAIL     SLO breached: worst p50/p99/p999 = "
              f"{gates.get('worst_p50_ns')}/{gates.get('worst_p99_ns')}/"
              f"{gates.get('worst_p999_ns')} ns vs budgets "
              f"{gates.get('p50_budget_ns')}/{gates.get('p99_budget_ns')}/"
              f"{gates.get('p999_budget_ns')}")
        failed = True
    histories = gates.get("audit_histories", 0)
    if histories > 0:
        print(f"OK       audit covered {histories} histories")
    else:
        print(f"FAIL     audit covered no histories")
        failed = True
    dropped = gates.get("audit_dropped")
    if dropped == 0:
        print(f"OK       audit recorders dropped no events")
    else:
        print(f"FAIL     audit recorders dropped {dropped} events "
              f"(histories incomplete)")
        failed = True
    if gates.get("audit_all_linearizable") is True:
        print(f"OK       every audited history linearizable")
    else:
        print(f"FAIL     audit found a non-linearizable history "
              f"(see the report's audit_failures)")
        failed = True
    if gates.get("crash_survivors_completed") is True:
        print(f"OK       crash scenarios survived: every tenant finished")
    else:
        print(f"FAIL     a crash scenario did not complete (stalled "
              f"tenant or missing reconnect)")
        failed = True
    return 1 if failed else 0


# The measured keys of an E4 distribution row whose unit is wall-clock
# microseconds (`lock_snap`: native threads, no analytic bound); its
# `count` is still compared.
MICROS_MEASURED = {"p50", "p90", "p99", "max", "mean"}


def strip(doc, ignored):
    if isinstance(doc, dict):
        if doc.get("metric") == "micros":
            ignored = ignored | MICROS_MEASURED
        return {k: strip(v, ignored) for k, v in doc.items() if k not in ignored}
    if isinstance(doc, list):
        return [strip(v, ignored) for v in doc]
    return doc


def first_diff(a, b, path="$"):
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return f"{path}.{k}: present on one side only"
            d = first_diff(a[k], b[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            d = first_diff(x, y, f"{path}[{i}]")
            if d:
                return d
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def main(argv):
    args, ignored = [], set(VOLATILE)
    gate_file, gate_fn, min_ratio = None, None, None
    it = iter(argv)
    for tok in it:
        if tok == "--ignore":
            ignored.add(next(it, "") or sys.exit("--ignore needs a KEY"))
        elif tok == "--e13-gate":
            gate_file = next(it, "") or sys.exit("--e13-gate needs a FILE")
            gate_fn, default_ratio = e13_gate, 1.0
        elif tok == "--e14-gate":
            gate_file = next(it, "") or sys.exit("--e14-gate needs a FILE")
            gate_fn, default_ratio = e14_gate, 0.95
        elif tok == "--e15-gate":
            gate_file = next(it, "") or sys.exit("--e15-gate needs a FILE")
            gate_fn, default_ratio = e15_gate, 0.0
        elif tok == "--min-ratio":
            min_ratio = float(next(it, "") or sys.exit("--min-ratio needs R"))
        else:
            args.append(tok)
    if gate_file is not None:
        if args:
            sys.exit("gate mode takes no directory operands")
        return gate_fn(gate_file,
                       default_ratio if min_ratio is None else min_ratio)
    if len(args) != 2:
        sys.exit(__doc__.strip().splitlines()[2].strip())
    base, cand = Path(args[0]), Path(args[1])

    failed = False
    base_files = sorted(base.glob("BENCH_*.json"))
    if not base_files:
        sys.exit(f"no BENCH_*.json under {base}")
    for bf in base_files:
        cf = cand / bf.name
        if not cf.exists():
            print(f"MISSING  {bf.name} (not in {cand})")
            failed = True
            continue
        a = strip(json.loads(bf.read_text()), ignored)
        b = strip(json.loads(cf.read_text()), ignored)
        d = first_diff(a, b)
        if d:
            print(f"DIFF     {bf.name}: {d}")
            failed = True
        else:
            print(f"OK       {bf.name}")
    for cf in sorted(cand.glob("BENCH_*.json")):
        if not (base / cf.name).exists():
            print(f"NEW      {cf.name} (no baseline yet)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
