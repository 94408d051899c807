"""Per-epoch trace records and their deterministic CSV/JSON serialization.

The CSV schema is fixed: one header line, one row per completed epoch, and
empty fields (not ``nan``) for quantities a run does not produce — e.g.
``dist_to_opt`` without an optimum oracle, or the tracker columns for plain
SGD. Floats are written with ``repr`` so identical runs serialize to
byte-identical files.

Effective-pass accounting: ``passes`` counts data passes, steps/n for the
stochastic methods, plus one extra pass per SVRG snapshot (a snapshot is a
full-gradient evaluation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

CSV_HEADER = "epoch,passes,full_loss,grad_norm,dist_to_opt,aux_value,growth_ratio,tau,alpha_bar"


@dataclass(frozen=True)
class TraceRecord:
    """One completed epoch of a run.

    ``None`` marks a field the run cannot compute rather than a numeric
    failure; non-finite floats (a diverging loss) are recorded as-is.
    """

    epoch: int
    passes: float
    full_loss: float
    grad_norm: float
    dist_to_opt: float | None = None
    aux_value: float | None = None
    growth_ratio: float | None = None
    tau: float | None = None
    alpha_bar: float | None = None


_FIELDS = tuple(f.name for f in fields(TraceRecord))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def trace_to_csv(records: list[TraceRecord]) -> str:
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join(_cell(getattr(rec, name)) for name in _FIELDS))
    return "\n".join(lines) + "\n"


def trace_to_json(records: list[TraceRecord]) -> str:
    rows = [{name: getattr(rec, name) for name in _FIELDS} for rec in records]
    return json.dumps(rows, indent=2) + "\n"


def parse_trace_csv(text: str) -> list[TraceRecord]:
    """Read back a trace written by trace_to_csv (round-trip helper)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized trace header")
    records = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(_FIELDS):
            raise ValueError(f"expected {len(_FIELDS)} fields, got {len(cells)}")
        kwargs = {}
        for name, cell in zip(_FIELDS, cells):
            if cell == "":
                kwargs[name] = None
            elif name == "epoch":
                kwargs[name] = int(cell)
            else:
                kwargs[name] = float(cell)
        records.append(TraceRecord(**kwargs))
    return records
