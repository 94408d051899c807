"""The benchmark's workloads and the checks on their outputs.

Each workload loads a different layer of the program:

* ``sparse-wide``: LIBSVM parse, then sp/taps/motaps on n=2000, d=10 000
  rows with 20 nonzeros. Today each step scans a dense d-vector and each
  record multiplies a dense n x d copy four times, so this is where a
  sparse layout and O(nnz) steps show. No grid sweep, no oracle.
* ``dense-grid``: the CLI's 7x7 gamma x gamma_tau sweep and its ``compare``
  at d=20, where the cost is Python call overhead per step, the per-cell
  loop and the baselines. No parse, no oracle, no large matvec.
* ``oracle-certify``: the logistic optimum oracle at n=1000, d=50, the two
  certified runs it feeds (the small-d contrast to ``sparse-wide``) and the
  ``verify`` property suites.

A workload is four calls: ``prepare`` makes its inputs from the seed
(untimed), ``build`` makes the program's dataset (timed as set-up),
``work`` calls the program (each call timed as a phase) and ``check``
tests the outputs (untimed). The checks use the benchmark's own arrays and
numpy formulas, never the layer being checked, and return exact facts
about the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from polyak_opt import cli, config, data, losses, polyak, verify

SIGMA = 1e-3
LOSS_RTOL = 1e-9
# certificate threshold, plus room for the roundoff between two ways of
# summing the same gradient
GRAD_TOL = 1e-8 + 1e-13


class Checks:
    """Correctness checks of one run: how many were made, which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class Rows:
    """A sparse matrix in coordinate form, with labels: the benchmark's own
    representation of a dataset."""

    labels: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    dim: int

    @property
    def n(self) -> int:
        return self.labels.size

    def margins(self, w):
        return np.bincount(self.rows, weights=self.vals * w[self.cols], minlength=self.n)


def parse_rows(text: str, dim: int) -> Rows:
    """The benchmark's own reader for the LIBSVM text the program writes."""
    labels, rows, cols, vals = [], [], [], []
    for r, line in enumerate(text.splitlines()):
        head, *pairs = line.split()
        labels.append(float(head))
        for pair in pairs:
            j, v = pair.split(":")
            rows.append(r)
            cols.append(int(j) - 1)
            vals.append(float(v))
    return Rows(np.array(labels), np.array(rows, dtype=np.int64),
                np.array(cols, dtype=np.int64), np.array(vals), dim)


def logistic_loss(x: Rows, w, sigma: float) -> float:
    t = x.margins(w)
    return float(np.mean(np.logaddexp(0.0, -x.labels * t)) + 0.5 * sigma * float(w @ w))


def logistic_grad(x: Rows, w, sigma: float):
    yt = x.labels * x.margins(w)
    dphi = -x.labels * 0.5 * (1.0 - np.tanh(0.5 * yt))  # -y / (1 + e^{yt})
    return np.bincount(x.cols, weights=x.vals * dphi[x.rows], minlength=x.dim) / x.n + sigma * w


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def runs_digest(runs) -> str:
    return digest(*((method, records, w.tobytes()) for method, (records, w) in runs.items()))


def array_bytes(obj, seen=None) -> int:
    """Bytes of every numpy array a program object holds, found through
    tuples, lists and the attributes of polyak_opt and scipy.sparse
    objects, so that the count follows a change of layout."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(array_bytes(x, seen) for x in obj)
    if not type(obj).__module__.startswith(("polyak_opt", "scipy.sparse")):
        return 0
    names = {s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())}
    names.update(getattr(obj, "__dict__", {}))
    return sum(array_bytes(getattr(obj, name, None), seen) for name in names)


def dataset_facts(ds) -> tuple[dict, Rows]:
    """Exact facts about a program dataset, read back through its LIBSVM
    serialization so they do not depend on the in-memory layout."""
    rows = parse_rows(data.serialize_libsvm(ds), ds.dim)
    return {"nnz": int(rows.vals.size), "array_bytes": array_bytes(ds)}, rows


def run_keeping_w(phase, method, ds, epochs, seed, **kwargs):
    """``polyak.run_epochs`` on the logistic loss, timed as a "run" phase;
    returns the records and a copy of the iterate after the last epoch."""
    final = {}

    def observer(epoch, state):
        if epoch == epochs:
            final["w"] = np.array(state if isinstance(state, np.ndarray) else state.w)

    with phase("run"):
        records = polyak.run_epochs(method, losses.LossSpec("logistic", sigma=SIGMA), ds,
                                    polyak.HyperParams(), epochs, seed, observer=observer, **kwargs)
    return records, final["w"]


def check_final_loss(checks, x: Rows, label, records, w):
    reported = records[-1].full_loss
    own = logistic_loss(x, w, SIGMA)
    checks.expect(abs(reported - own) <= LOSS_RTOL * abs(own),
                  f"{label}: full_loss {reported!r} vs own loss {own!r}")


@dataclass(frozen=True)
class SparseWide:
    name = "sparse-wide"
    n: int = 2000
    d: int = 10_000
    k: int = 20
    epochs: int = 4

    def prepare(self, seed, tmp):
        rng = np.random.default_rng(seed)
        idx = np.sort(np.stack([rng.choice(self.d, self.k, replace=False) for _ in range(self.n)]), axis=1)
        vals = rng.standard_normal((self.n, self.k)) / math.sqrt(self.k)
        labels = rng.choice([-1.0, 1.0], size=self.n)
        path = os.path.join(tmp, "sparse-wide.svm")
        with open(path, "w", encoding="utf-8") as fh:
            for y, row_idx, row_vals in zip(labels, idx, vals):
                pairs = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(row_idx.tolist(), row_vals))
                fh.write(f"{int(y)} {pairs}\n")
        own = Rows(labels, np.repeat(np.arange(self.n), self.k), idx.ravel(), vals.ravel(), self.d)
        return {"seed": seed, "path": path, "own": own}

    def build(self, inp):
        return data.load_libsvm(inp["path"], dim=self.d)

    def work(self, inp, ds, phase):
        return {method: run_keeping_w(phase, method, ds, self.epochs, inp["seed"])
                for method in ("sp", "taps", "motaps")}

    def check(self, inp, ds, runs, checks):
        facts, parsed = dataset_facts(ds)
        own = inp["own"]
        checks.expect(ds.n == own.n and ds.dim == own.dim, "dataset shape")
        checks.expect(facts["nnz"] == own.vals.size, f"parsed nnz {facts['nnz']} != {own.vals.size}")
        checks.expect(np.array_equal(parsed.labels, own.labels), "parsed labels")
        checks.expect(np.array_equal(parsed.cols, own.cols) and np.array_equal(parsed.vals, own.vals),
                      "parsed feature values")
        for method, (records, w) in runs.items():
            checks.expect(len(records) == self.epochs, f"{method}: one record per epoch")
            check_final_loss(checks, own, method, records, w)
        facts["digest"] = runs_digest(runs)
        return facts


@dataclass(frozen=True)
class DenseGrid:
    name = "dense-grid"
    n: int = 100
    d: int = 20
    grid_epochs: int = 50
    compare_epochs: int = 30
    methods = ("sp", "taps", "motaps", "sgd", "sag", "svrg")

    def prepare(self, seed, tmp):
        return {"spec": f"synth:separable:n={self.n},d={self.d},seed={seed}",
                "grid": os.path.join(tmp, "grid.csv"), "compare": os.path.join(tmp, "compare.csv")}

    def build(self, inp):
        return config.resolve_dataset(inp["spec"])

    def _cli(self, phase, name, argv):
        out = io.StringIO()
        with phase(name), contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, out.getvalue()

    def work(self, inp, ds, phase):
        common = ["--dataset", inp["spec"], "--threads", "1"]
        grid = self._cli(phase, "grid", ["grid", "--method", "motaps", "--epochs", str(self.grid_epochs),
                                         "--out", inp["grid"], *common])
        # compare's default method list is self.methods
        compare = self._cli(phase, "compare", ["compare", "--epochs", str(self.compare_epochs),
                                               "--out", inp["compare"], *common])
        with open(inp["grid"], "rb") as fh:
            grid_bytes = fh.read()
        with open(inp["compare"], "rb") as fh:
            compare_bytes = fh.read()
        return {"grid": (grid[0], grid_bytes), "compare": (compare[0], compare_bytes)}

    def check(self, inp, ds, out, checks):
        facts, _ = dataset_facts(ds)
        code, raw = out["grid"]
        checks.expect(code == 0, f"grid exit code {code}")
        lines = raw.decode().splitlines()
        cells = [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]
        checks.expect(lines[:1] == ["gamma,gamma_tau,final_grad_norm,final_loss"], "grid header")
        checks.expect(len(cells) == 49 and len({(c[0], c[1]) for c in cells}) == 49, "49 distinct grid cells")
        norms = [float(c[2]) for c in cells]
        finite = [g for g in norms if math.isfinite(g)]
        best = [ln for ln in lines if ln.startswith("# best")]
        best_norm = float(best[0].rsplit("final_grad_norm=", 1)[1]) if best else math.nan
        checks.expect(math.isfinite(best_norm) and best_norm == min(finite, default=math.nan),
                      f"best cell finite and least ({best_norm!r})")
        facts["diverged_cells"] = len(norms) - len(finite)

        code, raw = out["compare"]
        checks.expect(code == 0, f"compare exit code {code}")
        rows = [ln.split(",", 1)[0] for ln in raw.decode().splitlines() if not ln.startswith(("#", "method,"))]
        for method in self.methods:
            checks.expect(rows.count(method) == self.compare_epochs, f"compare rows for {method}")
        facts["digest"] = digest(out["grid"][1], out["compare"][1])
        return facts


@dataclass(frozen=True)
class OracleCertify:
    name = "oracle-certify"
    n: int = 1000
    d: int = 50
    epochs: int = 20
    verify_sizes: tuple | None = None  # None: verify's own default sizes

    def prepare(self, seed, tmp):
        return {"seed": seed, "spec": f"synth:separable:n={self.n},d={self.d},seed={seed}"}

    def build(self, inp):
        return config.resolve_dataset(inp["spec"])

    def work(self, inp, ds, phase):
        seed = inp["seed"]
        with phase("oracle"):
            cert = losses.optimum_oracle(losses.LossSpec("logistic", sigma=SIGMA), ds)
        runs = {
            "motaps": run_keeping_w(phase, "motaps", ds, self.epochs, seed, certificate=cert),
            "sp": run_keeping_w(phase, "sp", ds, self.epochs, seed, fi_star=cert.fi_star),
        }
        with phase("verify"):
            reports, ok = verify.run_all(seed=seed, sizes=self.verify_sizes)
        return {"cert": cert, "runs": runs, "reports": reports, "ok": ok}

    def check(self, inp, ds, out, checks):
        facts, own = dataset_facts(ds)
        cert = out["cert"]
        checks.expect(cert.converged, "oracle converged")
        gnorm = float(np.linalg.norm(logistic_grad(own, np.asarray(cert.w_star), SIGMA)))
        checks.expect(gnorm <= GRAD_TOL, f"own gradient norm at w_star {gnorm!r}")
        dist = [r.dist_to_opt for r in out["runs"]["motaps"][0]]
        checks.expect(all(x is not None and math.isfinite(x) for x in dist) and dist[-1] < dist[0],
                      f"motaps dist_to_opt finite and falling ({dist[0]!r} -> {dist[-1]!r})")
        for method, (records, w) in out["runs"].items():
            check_final_loss(checks, own, method, records, w)
        checks.expect(out["ok"], "verify.run_all passes: " + ", ".join(r.name for r in out["reports"] if not r.passed))
        facts["digest"] = digest(cert.w_star.tobytes(), runs_digest(out["runs"]), out["reports"])
        return facts


WORKLOADS = {wl.name: wl for wl in (SparseWide(), DenseGrid(), OracleCertify())}
