"""Benchmark of polyak-opt.

    python3 perfbench/run.py --workload sparse-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Workloads are ``sparse-wide``, ``dense-grid`` and
``oracle-certify`` (see ``workloads.py``). One process runs one workload;
``grid`` and ``compare`` get ``--threads 1``, so the process uses at most
the BLAS threads recorded in the manifest.

A run repeats passes until ``--seconds`` have gone by, give or take half
a pass (at least two passes). A pass builds the dataset (set-up) and then
makes the workload's program calls (work). Every pass's outputs are
checked.

``--trace 0`` reports the end-to-end metrics, measured untraced:
``setup_s`` (median ``import polyak_opt`` time over fresh interpreters,
plus median dataset build), ``work_s`` (median pass time after set-up)
and ``peak_rss_mb``. The time of each kind of call (``run_s``, ``grid_s``,
``compare_s``, ``oracle_s``, ``verify_s``) and the error rate are printed
to stderr and kept in the result file.

``--trace 1`` alternates traced and untraced passes (traced first, at
least two traced) and reports the per-layer metrics of ``tracer.py`` as
medians over the traced passes, plus ``trace.overhead_s``: median traced
pass time minus median untraced pass time. Counts and computed bytes must
repeat exactly between traced passes.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``. The line before it is the environment
manifest. Result files and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sparse-wide", "dense-grid", "oracle-certify")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import polyak_opt; print(time.perf_counter() - t)"
)
IMPORT_REPS = 6  # the first warms the bytecode and file caches and is dropped
MIN_PASSES = 2


def load_program():
    """Import polyak_opt from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import polyak_opt

    if not Path(polyak_opt.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"polyak_opt imported from {polyak_opt.__file__}, not from {SRC}")


def import_seconds() -> float:
    times = []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


class Phases:
    """Times each program call of a pass under its phase name; in a traced
    pass each call is also a span."""

    def __init__(self, tracer=None):
        self.seconds = defaultdict(float)
        self.calls = 0
        self.tracer = tracer

    @contextmanager
    def __call__(self, name):
        self.calls += 1
        span = self.tracer.span(f"phase.{name}") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        with span:
            yield
        self.seconds[name] += time.perf_counter() - t0


def one_pass(wl, inp, tr, checks) -> dict:
    """Build, work and check once; ``tr`` is a Tracer for a traced pass."""
    phases = Phases(tr)
    error = facts = None
    if tr:
        tr.install()
    t0 = time.perf_counter()
    try:
        try:
            with phases("build"):
                ds = wl.build(inp)
            out = wl.work(inp, ds, phases)
        finally:
            wall = time.perf_counter() - t0
            if tr:
                tr.uninstall()
        facts = wl.check(inp, ds, out, checks)
    except Exception:  # a failed program call is counted, and ends the run
        error = traceback.format_exc()
    return {"traced": tr is not None, "wall_s": wall, "phases": dict(phases.seconds),
            "calls": phases.calls, "error": error, "tracer": tr, "facts": facts}


def measure(wl, seed: int, seconds: float, trace: bool, tmp) -> dict:
    # imported late: both import polyak_opt, which load_program puts on the path
    import tracer
    from workloads import Checks

    inp = wl.prepare(seed, tmp)
    checks = Checks()
    passes = []
    deadline = time.perf_counter() + seconds
    min_passes = MIN_PASSES + 1 if trace else MIN_PASSES  # traced, untraced, traced
    # start a pass while at least half of one still fits before the deadline
    while len(passes) < min_passes or time.perf_counter() + passes[-1]["wall_s"] / 2 < deadline:
        traced_pass = trace and len(passes) % 2 == 0
        passes.append(one_pass(wl, inp, tracer.Tracer() if traced_pass else None, checks))
        if passes[-1]["error"] is not None:
            break
    good = [p for p in passes if p["error"] is None]
    digests = {p["facts"]["digest"] for p in good}
    checks.expect(len(digests) <= 1, "outputs byte-identical across passes")

    phase_s = {}
    for name in sorted({k for p in good for k in p["phases"]}):
        phase_s[f"{name}_s"] = statistics.median(p["phases"].get(name, 0.0) for p in good)
    metrics = {}
    if good and not trace:
        metrics = {
            "setup_s": (import_seconds() + phase_s["build_s"], "s"),
            "work_s": (statistics.median(sum(v for k, v in p["phases"].items() if k != "build")
                                         for p in good), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    traced = [p for p in good if p["traced"]]
    if traced:
        per_pass = []
        for p in traced:
            m = tracer.layer_metrics(p["tracer"])
            facts = p["facts"]
            m["data.dataset.array_bytes"] = (facts["array_bytes"], "bytes")
            m["data.dataset.nnz"] = (facts["nnz"], "count")
            m["cli.grid.diverged_cells"] = (facts.get("diverged_cells", 0), "count")
            per_pass.append(m)
        for name, (_, unit) in per_pass[0].items():
            values = [m[name][0] for m in per_pass]
            exact = unit in tracer.EXACT_UNITS
            if exact:
                checks.expect(len(set(values)) == 1, f"{name} repeats exactly: {values}")
            metrics[name] = (values[0] if exact else statistics.median(values), unit)
        untraced = [p["wall_s"] for p in good if not p["traced"]]
        if untraced:
            overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(untraced)
            metrics["trace.overhead_s"] = (overhead, "s")

    calls = sum(p["calls"] for p in passes)
    failed_calls = sum(p["error"] is not None for p in passes)
    attempted = calls + checks.attempted
    failed = failed_calls + len(checks.failures)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "phases": phase_s,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "phases", "error")} for p in passes],
        "failures": checks.failures,
        "tracers": [p["tracer"] for p in traced],
    }


def _report(wl_name, seed, rep) -> str:
    lines = [f"workload {wl_name}  seed {seed}  passes {len(rep['passes'])}"
             f"  ({sum(p['traced'] for p in rep['passes'])} traced)"]
    rows = [(name, value, unit) for name, (value, unit) in rep["metrics"].items()]
    rows += [(name, value, "s") for name, value in rep["phases"].items()]
    rows.append(("error_rate", rep["error_rate"], f"{rep['failed']}/{rep['attempted']}"))
    width = max(len(r[0]) for r in rows)
    lines += [f"  {name:<{width}}  {value:>14.6g}  {unit}" for name, value, unit in rows]
    lines += [f"  FAILED: {what}" for what in rep["failures"]]
    lines += [f"  ERROR in pass {i}:\n{p['error']}" for i, p in enumerate(rep["passes"]) if p["error"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import manifest
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        rep = measure(wl, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env = manifest.manifest(ROOT, args.workload, args.seed)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracers = rep.pop("tracers")
    if tracers:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for pass_no, tr in enumerate(tracers):
                tr.dump(fh, pass_no)
    result = {
        "correct": rep["correct"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in rep["metrics"].items()},
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"manifest": env, "result": result,
                   **{k: rep[k] for k in ("error_rate", "phases", "passes", "failures")}}, fh, indent=1)
    print(_report(args.workload, args.seed, rep), file=sys.stderr)
    print(json.dumps({"manifest": env}))
    print(json.dumps(result))
    return 0 if rep["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
