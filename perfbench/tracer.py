"""In-memory tracer for the traced benchmark passes.

A traced pass wraps the program's public functions at the names their
callers look up and restores them when the pass ends; the program itself
carries no instrumentation. ``from .x import y`` binds ``y`` in the caller's
module, so the caller's binding is the one patched (``polyak.loss_grad_i``,
``cli.run_epochs``, ...), not only the defining module's.

Spans are ``[name, start_ns, end_ns, parent]`` rows kept in a list and
written out when the benchmark ends. A function called once per step or
once per oracle iteration gets no span of its own: it adds to a
``(calls, ns)`` counter keyed by its name and the enclosing span.

The parent stack is shared by all threads. That is sound here because
``grid`` and ``compare`` run with ``--threads 1``: one worker thread runs at
a time while the calling thread waits for it.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from polyak_opt import aux, baselines, cli, config, data, losses, polyak, verify

_now = time.perf_counter_ns

RUN = "polyak.run_epochs"
EPOCH_END = "polyak.epoch_end"
# spans that make up one per-epoch record inside run_epochs
RECORD_SPANS = ("polyak.full_loss", "polyak.full_grad", "aux.aux_value")
BASELINE_METHODS = ("sgd", "sag", "svrg")
# metrics that must repeat exactly between passes of one seed
EXACT_UNITS = ("count", "bytes")


def suite_names():
    return [fn.__name__.removesuffix("_suite") for fn in verify.SUITES]


class Tracer:
    """Spans, per-step counters and the patches that produce them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[tuple[str, int], list[int]] = {}
        self.steps: dict[int, int] = {}  # run_epochs span -> steps in completed epochs
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _now(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def mark(self, name: str) -> None:
        t = _now()
        self.spans.append([name, t, t, self._stack[-1] if self._stack else -1])

    # -- patches ------------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _spanned(self, fn, name):
        """``fn`` recording a span per call; ``name`` is a string or a
        function of the call's arguments."""
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_of(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_span(self, owner, attr: str, name) -> None:
        self._patch(owner, attr, self._spanned(getattr(owner, attr), name))

    def wrap_count(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        counters, stack = self.counters, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - t0
                key = (name, stack[-1] if stack else -1)
                acc = counters.get(key)
                if acc is None:
                    counters[key] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed

        self._patch(owner, attr, counted)

    def wrap_run_epochs(self, owner) -> None:
        """Span per run plus an epoch-end mark from an added observer, which
        chains to the caller's own observer."""
        fn = owner.run_epochs
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, observer=None, **kwargs):
            n = signature.bind(*args, **kwargs).arguments["data"].n

            def on_epoch(epoch, state):
                self.mark(EPOCH_END)
                if observer is not None:
                    observer(epoch, state)

            idx = self._open(RUN)
            records = []
            try:
                records = fn(*args, observer=on_epoch, **kwargs)
                return records
            except polyak.NumericError as err:
                records = err.records
                raise
            finally:
                self._close(idx)
                # passes = steps / n for the Polyak methods
                self.steps[idx] = round(records[-1].passes * n) if records else 0

        self._patch(owner, "run_epochs", traced)

    def install(self) -> None:
        """Patch every traced name; ``uninstall`` undoes it in reverse."""
        self.wrap_span(data, "load_libsvm", "data.load_libsvm")
        self.wrap_span(data.Dataset, "__init__", "data.Dataset")
        for owner in (config, cli):
            self.wrap_span(owner, "resolve_dataset", "config.resolve_dataset")
        for owner in (polyak, baselines, aux, verify):
            self.wrap_count(owner, "loss_grad_i", "losses.loss_grad_i")
        for owner in (losses, aux):
            self.wrap_count(owner, "batch_eval", "losses.batch_eval")
        # losses.full_grad is the name the oracle's iteration loop looks up
        self.wrap_count(losses, "full_grad", "losses.full_grad")
        for owner in (losses, cli):
            self.wrap_span(owner, "optimum_oracle", "losses.optimum_oracle")
        self.wrap_span(polyak, "full_loss", "polyak.full_loss")
        self.wrap_span(polyak, "full_grad", "polyak.full_grad")
        for attr in ("aux_value_sp", "aux_value_taps", "aux_value_motaps"):
            self.wrap_span(aux, attr, "aux.aux_value")
        for owner in (polyak, cli):
            self.wrap_run_epochs(owner)
        self.wrap_span(cli, "run_baseline", lambda method, *a, **k: f"baselines.run_baseline.{method}")
        self.wrap_span(cli, "trace_to_csv", "traces.trace_to_csv")
        self._patch(verify, "SUITES", tuple(
            self._spanned(fn, f"verify.{short}") for fn, short in zip(verify.SUITES, suite_names())
        ))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, fh, pass_no: int) -> None:
        for name, start, end, parent in self.spans:
            fh.write(json.dumps({"pass": pass_no, "name": name, "start_ns": start,
                                 "end_ns": end, "parent": parent}) + "\n")
        for (name, parent), (calls, ns) in self.counters.items():
            fh.write(json.dumps({"pass": pass_no, "name": name, "parent": parent,
                                 "calls": calls, "ns": ns}) + "\n")


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    spans = tr.spans
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, (name, _, _, parent) in enumerate(spans):
        by_name[name].append(i)
        children[parent].append(i)

    def dur(i):
        return (spans[i][2] - spans[i][1]) / 1e9

    def total(name):
        return sum(dur(i) for i in by_name[name])

    def calls_ns(name, parents=None):
        calls = ns = 0
        for (key, parent), (c, t) in tr.counters.items():
            if key == name and (parents is None or parent in parents):
                calls += c
                ns += t
        return calls, ns

    # Epoch k of a run: its step loop runs from the previous epoch-end mark
    # (or the run's start) to the start of the record's first full_loss; the
    # record runs from there to the epoch-end mark.
    step_loop_ns = record_ns = records = 0
    record_spans = set()
    for run in by_name[RUN]:
        prev, record_start = spans[run][1], None
        for c in children[run]:
            name, start = spans[c][0], spans[c][1]
            if name in RECORD_SPANS:
                record_spans.add(c)
                if record_start is None:
                    record_start = start
            elif name == EPOCH_END:
                record_start = start if record_start is None else record_start
                step_loop_ns += record_start - prev
                record_ns += start - record_start
                records += 1
                prev, record_start = start, None
        step_loop_ns += spans[run][2] - prev  # return, or the epoch a NumericError cut short
    steps = sum(tr.steps.values())
    lg_calls, lg_ns = calls_ns("losses.loss_grad_i")
    be_calls, be_ns = calls_ns("losses.batch_eval")
    record_evals, _ = calls_ns("losses.batch_eval", record_spans)
    oracle_grads, _ = calls_ns("losses.full_grad", set(by_name["losses.optimum_oracle"]))

    grids = by_name["phase.grid"]
    cells = [c for g in grids for c in children[g] if spans[c][0] == RUN]
    cell_ms = [dur(c) * 1e3 for c in cells]

    m = {
        "data.load_libsvm.s": (total("data.load_libsvm"), "s"),
        "data.Dataset.s": (total("data.Dataset"), "s"),
        "losses.loss_grad_i.calls": (lg_calls, "count"),
        "losses.loss_grad_i.us": (lg_ns / lg_calls / 1e3 if lg_calls else 0.0, "us"),
        "losses.batch_eval.calls": (be_calls, "count"),
        "losses.batch_eval.s": (be_ns / 1e9, "s"),
        "losses.optimum_oracle.s": (total("losses.optimum_oracle"), "s"),
        "losses.oracle.full_grad_calls": (oracle_grads, "count"),
        "polyak.steps": (steps, "count"),
        "polyak.step_loop.s": (step_loop_ns / 1e9, "s"),
        "polyak.step_us": (step_loop_ns / steps / 1e3 if steps else 0.0, "us"),
        "polyak.record.s": (record_ns / 1e9, "s"),
        "polyak.record.batch_evals_per_record": (record_evals / records if records else 0.0, "count"),
        "aux.aux_value.s": (sum(dur(i) for i in record_spans if spans[i][0] == "aux.aux_value"), "s"),
    }
    for short in suite_names():
        m[f"verify.{short}.s"] = (total(f"verify.{short}"), "s")
    for method in BASELINE_METHODS:
        m[f"baselines.run_baseline.{method}.s"] = (total(f"baselines.run_baseline.{method}"), "s")
    m.update({
        "traces.trace_to_csv.calls": (len(by_name["traces.trace_to_csv"]), "count"),
        "traces.trace_to_csv.s": (total("traces.trace_to_csv"), "s"),
        "config.resolve_dataset.s": (total("config.resolve_dataset"), "s"),
        "cli.grid.cells": (len(cells), "count"),
        "cli.grid.cell_ms_p50": (statistics.median(cell_ms) if cell_ms else 0.0, "ms"),
        "cli.grid.cell_ms_max": (max(cell_ms, default=0.0), "ms"),
        "cli.grid.driver_s": (sum(dur(g) for g in grids) - sum(cell_ms) / 1e3, "s"),
    })
    return m
