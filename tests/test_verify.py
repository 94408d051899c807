"""The verify suites' verdict rule: a check fails unless its deviation is
at most its tolerance, so a NaN in the quantity a suite checks fails that
suite (with ``worst=nan``) and ``polyak-opt verify`` exits 1."""

import dataclasses
import math

import numpy as np
import pytest

from polyak_opt import aux, verify
from polyak_opt.cli import main

SIZES = ((4, 3),)


def _nan_after(fn, poison):
    def wrapped(*args, **kwargs):
        return poison(fn(*args, **kwargs))

    return wrapped


# (suite, aux name to patch, how its result is turned into NaN)
INJECTIONS = [
    (verify.growth_suite, "growth_ratio", lambda ratio: math.nan),
    (verify.projection_suite, "kkt_projection", lambda x: np.full_like(x, math.nan)),
    (verify.sgd_equivalence_suite, "sgd_view_taps_step", lambda out: (out[0] * math.nan, out[1])),
    (
        verify.invariance_suite,
        "aux_value_sp",
        lambda ev: dataclasses.replace(ev, h_value=math.nan),
    ),
    (verify.gradient_check_suite, "mean_grad_taps", lambda g: g * math.nan),
]


@pytest.mark.parametrize(
    "suite, name, poison", INJECTIONS, ids=[s.__name__ for s, _, _ in INJECTIONS]
)
def test_nan_deviation_fails_suite(monkeypatch, suite, name, poison):
    monkeypatch.setattr(aux, name, _nan_after(getattr(aux, name), poison))
    # the poisoned sgd-view trace reaches np.logaddexp with NaN
    with np.errstate(invalid="ignore"):
        report = suite(np.random.default_rng(0), SIZES)
    assert report.passed is False
    assert math.isnan(report.worst)
    assert report.detail


def test_cli_exits_one_on_nan(monkeypatch, capsys):
    monkeypatch.setattr(aux, "growth_ratio", lambda lhs, rhs: math.nan)
    code = main(["verify", "--sizes", "4:3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  growth           worst=nan" in out
