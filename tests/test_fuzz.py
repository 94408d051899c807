"""A boundary fuzzer over the settings table: ``run``, ``grid``, ``compare``
and ``gen`` driven in-process with flags built from every config key, values
at the edges of what ``float`` and ``int`` read, tiny ``synth:`` specs and
short LIBSVM files. Whatever the input, the command ends as exit 0, 2 or 3,
exit 2 writes exactly one ``error:`` line, no exception but argparse's
``SystemExit(2)`` escapes and no numpy ``RuntimeWarning`` is raised."""

import contextlib
import io
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyak_opt import cli
from polyak_opt.baselines import BASELINES, SGD_SCHEDULES
from polyak_opt.config import _FIELDS, _FORMATS, _KEY_OF, _ORACLES
from polyak_opt.data import parse_libsvm
from polyak_opt.losses import _FAMILIES
from polyak_opt.polyak import _SCHEDULES, METHODS

# text at the edges of what float() and int() read, and text they reject
EDGES = ("inf", "-inf", "nan", "1e308", "-0.0", "5e-324", "1_0", "x", "")
NUMBERS = ("0", "0.5", "2", "-1", "1e154")
SMALL_INTS = ("0", "1", "2", "3", "-1")
METHOD_NAMES = METHODS + BASELINES


def _pick(*pools):
    return st.sampled_from(tuple(v for pool in pools for v in pool))


def _joined(pool):
    return st.lists(st.sampled_from(pool), max_size=3).map(",".join)


def _synth_spec():
    """Mostly specs that build; n = 20 lets a noise of 1e308 overflow."""
    params = st.fixed_dictionaries(
        {"n": _pick(("3", "6", "20", "0", "x")), "d": _pick(("1", "2", "4", "0")),
         "noise": _pick(EDGES, ("0", "0.3"))},
        optional={"seed": _pick(SMALL_INTS)},
    )
    return st.tuples(_pick(("underparam", "separable", "bogus")), params).map(
        lambda mp: f"synth:{mp[0]}:" + ",".join(f"{k}={v}" for k, v in mp[1].items())
    )


# LIBSVM lines that read: ones whose square norm overflows or underflows,
# and labels only least squares takes (one whose square overflows)
READS = ("1 1:0.5 3:2", "-1 2:1e300", "1", "-1 1:-2 2:0.5", "1 2:1e-300", "-1 1:1e-160",
         "0.5 1:1", "1e308 1:1")
# lines the reader rejects
REJECTS = ("nan 1:1", "1 1:inf", "1 1:1_0", "-1 3:1 1:2")


def _libsvm_text():
    """The text of a LIBSVM file: 0-3 lines that read, then at most one that
    does not, so that most files load."""
    return st.tuples(st.lists(_pick(READS), max_size=3), st.lists(_pick(REJECTS), max_size=1)).map(
        lambda parts: "".join(f"{s}\n" for s in parts[0] + parts[1]))


def _flag_values(tmp_path, data_file):
    """A strategy for the text of each config key's flag. Datasets stay
    tiny and epochs few, so that every call takes milliseconds."""
    out_file = tmp_path / "out.txt"
    special = {
        "dataset": st.one_of(_synth_spec(), _pick((data_file, str(tmp_path / "missing.svm")))),
        "family": _pick(_FAMILIES, ("hinge",)),
        "method": _pick(METHOD_NAMES, ("newton",)),
        "schedule": _pick(_SCHEDULES, ("x",)),
        "epochs": _pick(SMALL_INTS, EDGES),
        "seed": _pick(SMALL_INTS, EDGES),
        "budget": _pick(SMALL_INTS, EDGES),
        "oracle": _pick(_ORACLES, ("x",)),
        "out": _pick(("", str(out_file), str(tmp_path), str(tmp_path / "missing" / "out.txt"))),
        "format": _pick(_FORMATS, ("xml",)),
        "methods": _joined(METHOD_NAMES + ("x",)),
        "gamma_grid": _joined(NUMBERS + EDGES),
        "gamma_tau_grid": _joined(NUMBERS + EDGES),
        "sgd_schedule": _pick(SGD_SCHEDULES, ("x",)),
    }
    return {
        key: st.just(None) if isinstance(_FIELDS[name].default, bool)  # a flag with no value
        else special.get(name, _pick(NUMBERS, EDGES))
        for name, key in _KEY_OF.items()
    }


def _argv(tmp_path, data_file):
    """``gen`` of a synthetic spec, or ``run``, ``grid`` or ``compare`` with
    settings that run (a tiny dataset, half the time the LIBSVM file, a
    family, a method, an oracle and 1-3 epochs) and then up to three keys'
    flags with any value."""
    values = _flag_values(tmp_path, data_file)
    synth = _pick(("synth:separable:n=4,d=2", "synth:underparam:n=5,d=2,noise=0.3"))
    dataset = st.one_of(synth, st.just(data_file))
    base = st.tuples(dataset, _pick(("logistic", "squared")), _pick(METHOD_NAMES), _pick(_ORACLES),
                     _pick(("1", "2", "3"))).map(
        lambda b: ["--dataset", b[0], "--family", b[1], "--method", b[2], "--oracle", b[3], "--epochs", b[4]])
    override = st.one_of([st.tuples(st.just(k), v) for k, v in values.items()])
    flags = st.lists(override, max_size=3).map(
        lambda kvs: [x for k, v in kvs for x in ("--" + k.replace("_", "-"),) + (() if v is None else (v,))])
    return st.tuples(_pick(("run", "grid", "compare", "gen")), base, flags, _synth_spec()).map(
        lambda c: ["gen", "--dataset", c[3]] if c[0] == "gen" else [c[0], *c[1], *c[2]])


def _call(argv):
    """``(exit code, stdout, stderr)`` of ``cli.main(argv)``, with code None
    for argparse's exit and any numpy RuntimeWarning raised as an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            code = None
    return code, out.getvalue(), err.getvalue()


def test_every_input_ends_at_the_boundary(tmp_path):
    data_file = tmp_path / "data.svm"

    @settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(tmp_path, str(data_file)), _libsvm_text())
    def check(argv, libsvm_text):
        data_file.write_text(libsvm_text, encoding="utf-8")
        code, out, err = _call(argv)
        assert code in (None, 0, 2, 3), (argv, code, err)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        if argv[0] == "gen" and code == 0:
            parse_libsvm(out)  # gen writes what the reader reads

    check()
