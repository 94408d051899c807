"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload shrunk to a few milliseconds of work, untraced and
traced, and checks that:

* every metric BENCHMARK.json names is emitted, with its unit;
* counts and computed bytes repeat exactly between two traced runs;
* the step loop and the records account for every traced run_epochs call;
* a corrupted output (a perturbed final iterate handed to the loss check)
  makes the error rate positive.

It is not part of the test suite under tests/.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run

run.load_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "sparse-wide": workloads.SparseWide(n=60, d=300, k=5, epochs=2),
    "dense-grid": workloads.DenseGrid(n=12, d=4, grid_epochs=2, compare_epochs=2),
    "oracle-certify": workloads.OracleCertify(n=40, d=4, epochs=3, verify_sizes=((3, 2), (5, 3))),
}
SEED = 7


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    run.OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        for name, wl in TINY.items():
            exact = []
            for trace in (False, True, True):
                rep = run.measure(wl, SEED, 0, trace, tmp)
                if not rep["correct"]:
                    problems.append(f"{name} trace={trace}: not correct: {rep['failures']}")
                got = {k: unit for k, (_, unit) in rep["metrics"].items()}
                if got != wanted[trace]:
                    problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                                    f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                    f"extra {sorted(set(got) - set(wanted[trace]))}, "
                                    f"units {[k for k in got if k in wanted[trace] and got[k] != wanted[trace][k]]}")
                if trace:
                    exact.append({k: v for k, (v, unit) in rep["metrics"].items() if unit in tracer.EXACT_UNITS})
                    for tr in rep["tracers"]:
                        m = tracer.layer_metrics(tr)
                        runs = sum(e - s for n, s, e, _ in tr.spans if n == tracer.RUN) / 1e9
                        split = m["polyak.step_loop.s"][0] + m["polyak.record.s"][0]
                        if abs(split - runs) > 1e-9 * max(1.0, runs):
                            problems.append(f"{name}: step loop + record {split} != run_epochs {runs}")
            if exact[0] != exact[1]:
                problems.append(f"{name}: counts differ between traced runs: {exact}")

        original = workloads.logistic_loss
        workloads.logistic_loss = lambda x, w, sigma: original(x, w + 1e-3, sigma)
        try:
            rep = run.measure(TINY["sparse-wide"], SEED, 0, False, tmp)
        finally:
            workloads.logistic_loss = original
        if not rep["error_rate"] > 0 or rep["correct"]:
            problems.append("a perturbed final iterate did not raise the error rate")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for p in problems:
        print(f"FAIL  {p}", file=sys.stderr)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
