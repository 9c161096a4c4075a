"""coarsekit benchmark: one workload per run, end-to-end or traced.

Usage (from the repository root):

    python3 bench/run.py --workload gate --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, median round time,
peak memory).  ``--trace 1`` prints the per-layer metrics instead: it runs
untraced and traced rounds in turn, and the spans come only from the traced
ones.  The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
operation counts, the failed kinds and each workload's own phase times.
Full results and spans are written under ``bench/out/``.
"""

from __future__ import annotations

import os

# Fix BLAS threading before numpy loads, so both sides of a comparison match.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

T_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def _import_library():
    """Import coarsekit from this checkout's src/, or exit 2 if it is not there."""
    if not (SRC / "coarsekit" / "__init__.py").is_file():
        print(f"error: no coarsekit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import coarsekit

    if Path(coarsekit.__file__).resolve().parent != (SRC / "coarsekit").resolve():
        print(f"error: coarsekit imported from {coarsekit.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Ledger:
    """Operations attempted and failed, op times by kind, check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = Counter()
        self.times = defaultdict(list)
        self.check_errors = []


def run_round(ops, ledger: Ledger, samples=None, before_checks=None) -> float:
    """Run each op once; time the round; add each op's time to ``samples`` (a
    list per op position), if given; check outputs after the clock stops (and
    after ``before_checks``, if given)."""
    from checks import CheckError

    results = []
    t_round = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out, err = op.call(), None
        except Exception as e:  # a failed operation is counted, not fatal
            # keep only the name: the traceback would hold this frame, and
            # with it the whole round's outputs, until a cyclic collection
            out, err = None, type(e).__name__
        results.append((op, out, err, time.perf_counter() - t0))
    wall = time.perf_counter() - t_round
    if before_checks is not None:
        before_checks()
    if samples is not None and not samples:
        samples.extend([] for _ in results)
    for i, (op, out, err, dt) in enumerate(results):
        if samples is not None:
            samples[i].append(dt)
        ledger.attempted += 1
        ledger.times[op.kind].append(dt)
        if err is not None:
            ledger.failed[f"{op.kind}: {err}"] += 1
            continue
        if op.check is not None:
            try:
                op.check(out)
            except CheckError as e:
                ledger.check_errors.append(f"{op.kind}: {e}")
    return wall


def _keep_going(t_begin, round_walls, seconds) -> bool:
    """Start another whole round only if it should end inside the window."""
    elapsed = time.perf_counter() - t_begin
    return elapsed + statistics.mean(round_walls) <= seconds


def _import_seconds() -> float:
    """Median of three fresh interpreters that only import coarsekit.cli."""
    code = "import time; t = time.perf_counter(); import coarsekit.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    vals = []
    for _ in range(3):
        p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=env, cwd=ROOT, check=True, timeout=120)
        vals.append(float(p.stdout))
    return statistics.median(vals)


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(ops, seconds, ledger, after_first_ops):
    """Whole rounds for ``seconds``; ``after_first_ops`` runs once, between the
    first round's operations and its checks.  Returns the round times and
    each op's times."""
    walls, samples = [], []
    t_begin = time.perf_counter()
    while True:
        walls.append(run_round(ops, ledger, samples, None if walls else after_first_ops))
        if not _keep_going(t_begin, walls, seconds):
            break
    return walls, samples


def medians_by_kind(ops, samples) -> dict:
    """{op kind: [median time of each op of that kind]}."""
    out = defaultdict(list)
    for op, ts in zip(ops, samples):
        out[op.kind].append(statistics.median(ts))
    return out


def measure_traced(wl, inputs, seconds, ledger, out_stem, after_first_ops):
    """Alternate untraced and traced rounds; per-layer numbers from the traced ones."""
    from spans import COUNTERS, SPAN_NAMES, Tracer, merge_totals

    plain_ops = wl.ops(inputs, traced=False)
    traced_ops = wl.ops(inputs, traced=True)
    tracer = Tracer()
    plain, traced = [], []
    t_begin = time.perf_counter()
    while True:
        plain.append(run_round(plain_ops, ledger, None, None if plain else after_first_ops))
        tracer.install()
        try:
            traced.append(run_round(traced_ops, ledger))
        finally:
            tracer.uninstall()
        if not _keep_going(t_begin, [a + b for a, b in zip(plain, traced)], seconds):
            break
    totals = tracer.totals()
    counts = Counter(tracer.counts)
    for prefix in getattr(wl, "child_totals", []):
        child = json.loads(Path(f"{prefix}.json").read_text())
        merge_totals(totals, child["totals"])
        counts.update(child["counts"])
    tracer.dump(f"{out_stem}.spans.npz")

    k = len(traced)
    metrics = {}
    for name in SPAN_NAMES:
        slot = totals.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (slot["calls"] / k, "count")
        metrics[f"{name}.self_s"] = (slot["self_s"] / k, "s")
    for name in COUNTERS:
        metrics[name] = (counts[name] / k, "count")
    cover_calls = totals["generators.random_cover"]["calls"]
    metrics["generators.random_cover.accept_ratio"] = (
        counts["generators.random_cover.accepted"] / cover_calls if cover_calls else 0.0, "ratio")
    metrics["cli.import_s"] = (_import_seconds(), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, len(plain) + k


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    import_s = time.perf_counter() - T_START
    from workloads import OUT_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    out_stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"

    preps = []
    for _ in range(SETUP_REPEATS):
        inputs = None  # the previous copy must not add to the peak memory
        t0 = time.perf_counter()
        inputs = wl.prepare(args.seed)
        preps.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(preps)

    # The peak memory is read after the first round's operations and before
    # anything of the benchmark's own (references, checks) can raise it.
    peak = []

    def after_first_ops():
        peak.append(_peak_rss_mb(children=wl.rss_of_children))
        inputs.update(wl.references(inputs))

    ledger = Ledger()
    try:
        if args.trace:
            metrics, rounds = measure_traced(wl, inputs, args.seconds, ledger, out_stem, after_first_ops)
            phases = {}
        else:
            ops = wl.ops(inputs)
            walls, samples = measure(ops, args.seconds, ledger, after_first_ops)
            rounds = len(walls)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(walls), "s"),
                "peak_rss_mb": (peak[0], "MB"),
            }
            phases = wl.phases(medians_by_kind(ops, samples))
    finally:
        wl.finish(inputs)

    failed = sum(ledger.failed.values())
    unexpected = sorted(kind for kind in ledger.failed if kind not in wl.kept_faults)
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {rounds} rounds")
    print(f"operations: attempted {ledger.attempted}, failed {failed}")
    for kind, count in sorted(ledger.failed.items()):
        print(f"  failed {count} x {kind}")
    for kind in unexpected:
        print(f"  UNEXPECTED FAILURE {kind}")
    for msg in ledger.check_errors:
        print(f"  CHECK FAILED {msg}")
    if phases:
        print("phases: " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in phases.items()}))
    result = {
        "correct": not ledger.check_errors and not unexpected,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    Path(f"{out_stem}.json").write_text(json.dumps(
        dict(result, workload=wl.name, seed=args.seed, rounds=rounds,
             failed_kinds=dict(ledger.failed), check_errors=ledger.check_errors,
             phases={k: {"value": v, "unit": u} for k, (v, u) in phases.items()},
             op_times=dict(ledger.times)), indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
