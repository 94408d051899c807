"""The flat key=value config format, value coercion, dataset specs, and
their mapping onto loss/hyperparameter objects."""

import dataclasses
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyak_opt.baselines import SGD_SCHEDULES
from polyak_opt.config import (
    ConfigError,
    ExperimentConfig,
    dump_config,
    load_config,
    make_hyper,
    make_loss_spec,
    parse_config,
    parse_float_list,
    resolve_dataset,
)
from polyak_opt.data import load_libsvm, serialize_libsvm, synth_dataset


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\n  gamma = 0.5  # inline\n")
        assert cfg.gamma == 0.5
        assert cfg.epochs == ExperimentConfig().epochs

    def test_lambda_spelling_maps_to_lam(self):
        cfg = parse_config("lambda = 0.25\n")
        assert cfg.lam == 0.25
        text = dump_config(cfg)
        assert "lambda = 0.25" in text
        assert "\nlam =" not in text

    def test_value_may_contain_equals(self):
        cfg = parse_config("dataset = synth:underparam:n=5,d=3\n")
        assert cfg.dataset == "synth:underparam:n=5,d=3"

    def test_bool_coercion(self):
        for raw, expected in [
            ("true", True), ("1", True), ("yes", True),
            ("false", False), ("0", False), ("no", False),
        ]:
            assert parse_config(f"normalize = {raw}\n").normalize is expected
        with pytest.raises(ConfigError):
            parse_config("normalize = maybe\n")

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("gamma = 0.5\n# comment\nmomentum = 0.9\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("seed = 1\njust words\n")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config("epochs = soon\n")

    def test_invalid_choice_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            parse_config("format = xml\n")
        with pytest.raises(ConfigError, match="oracle"):
            parse_config("oracle = magic\n")

    def test_layering_on_base(self):
        base = parse_config("gamma = 0.5\nseed = 7\n")
        top = parse_config("seed = 9\n", base=base)
        assert top.gamma == 0.5
        assert top.seed == 9

    def test_round_trip_exact(self):
        cfg = ExperimentConfig(
            dataset="data/rcv1.bin",
            normalize=True,
            family="monomial",
            sigma=1e-5,
            power_r=1.5,
            method="motaps",
            gamma=0.123456789012345,
            gamma_tau=1.0 - 0.123456789012345,
            lam=0.7,
            beta=0.25,
            step_cap=math.inf,
            schedule="motaps_decreasing",
            mu=0.01,
            epochs=3,
            seed=-4,
            tau=2.5,
            fi_star=-0.125,
            oracle="iter",
            budget=1000,
            out="trace.csv",
            format="json",
            threads=2,
        )
        assert parse_config(dump_config(cfg)) == cfg

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("method = taps\nepochs = 4\n", encoding="utf-8")
        cfg = load_config(path)
        assert cfg.method == "taps" and cfg.epochs == 4


# strings that read back as themselves: no '#', no line break or other
# control character, no surrounding whitespace
_WRITABLE_TEXT = st.text(
    st.characters(blacklist_characters="#", blacklist_categories=("Cc", "Zl", "Zp"))
).map(str.strip)
_CHOICES = {
    "format": st.sampled_from(("csv", "json")),
    "oracle": st.sampled_from(("none", "closed", "iter")),
    "sgd_schedule": st.sampled_from(SGD_SCHEDULES),
    "epochs": st.integers(min_value=1),
}
_FREE_TEXT = [f.name for f in dataclasses.fields(ExperimentConfig)
              if isinstance(f.default, str) and f.name not in _CHOICES]


def _values(field):
    if field.name in _CHOICES:
        return _CHOICES[field.name]
    kind = type(field.default)
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers()
    if kind is float:
        return st.floats(allow_nan=False)
    return _WRITABLE_TEXT


_CONFIGS = st.builds(
    ExperimentConfig, **{f.name: _values(f) for f in dataclasses.fields(ExperimentConfig)}
)


class TestDumpConfig:
    @given(_CONFIGS)
    def test_every_field_round_trips(self, cfg):
        assert parse_config(dump_config(cfg)) == cfg

    @given(
        st.sampled_from(_FREE_TEXT),
        st.one_of(
            st.tuples(_WRITABLE_TEXT, st.sampled_from("#\n\r\x0b\x0c\x1c\x85\u2028\u2029"),
                      _WRITABLE_TEXT).map("".join),
            st.tuples(st.sampled_from(" \t\u3000"), _WRITABLE_TEXT, st.booleans()).map(
                lambda p: p[0] + p[1] if p[2] else p[1] + p[0]
            ),
        ),
    )
    def test_unwritable_string_names_its_key(self, name, value):
        cfg = dataclasses.replace(ExperimentConfig(), **{name: value})
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} = "):
            dump_config(cfg)

    def test_hash_in_path_is_not_cut_short(self):
        with pytest.raises(ConfigError, match="^dataset = '/tmp/run#1.svm'"):
            dump_config(ExperimentConfig(dataset="/tmp/run#1.svm"))

    def test_newline_cannot_inject_a_key(self):
        with pytest.raises(ConfigError, match="^out = "):
            dump_config(ExperimentConfig(out="trace.csv\nmethod = adam"))


class TestParseFloatList:
    def test_basic(self):
        assert parse_float_list("0.1, 0.2,1e-3") == [0.1, 0.2, 0.001]

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_float_list("  ,  ")
        with pytest.raises(ConfigError):
            parse_float_list("0.1,fast")


class TestResolveDataset:
    def test_synthetic_spec(self):
        data = resolve_dataset("synth:underparam:n=6,d=3,noise=0.1,seed=2")
        expected, _ = synth_dataset(2, 6, 3, "underparam", noise=0.1)
        assert data == expected

    def test_synthetic_defaults(self):
        data = resolve_dataset("synth:separable:n=8,d=4")
        expected, _ = synth_dataset(0, 8, 4, "separable", noise=0.0)
        assert data == expected

    def test_file_path(self, tmp_path):
        data, _ = synth_dataset(1, 5, 3, "underparam")
        path = tmp_path / "small.txt"
        path.write_text(serialize_libsvm(data), encoding="utf-8")
        assert resolve_dataset(str(path)) == load_libsvm(path)

    def test_bad_specs(self):
        for spec in (
            "synth:underparam",
            "synth:underparam:d=3",
            "synth:underparam:n=5,d=3,rows=2",
            "synth:underparam:n=5,d",
        ):
            with pytest.raises(ConfigError):
                resolve_dataset(spec)
        with pytest.raises(ValueError):
            resolve_dataset("synth:clusters:n=5,d=3")


class TestConfigMapping:
    def test_loss_spec_fields(self):
        cfg = dataclasses.replace(
            ExperimentConfig(), family="monomial", sigma=0.3, power_r=2.0
        )
        spec = make_loss_spec(cfg)
        assert (spec.family, spec.sigma, spec.power_r) == ("monomial", 0.3, 2.0)

    def test_hyper_fields(self):
        cfg = dataclasses.replace(
            ExperimentConfig(),
            gamma=0.4, gamma_tau=0.2, lam=0.3, beta=0.1,
            step_cap=5.0, schedule="motaps_decreasing", mu=0.05,
        )
        hyper = make_hyper(cfg)
        assert hyper.gamma == 0.4
        assert hyper.gamma_tau == 0.2
        assert hyper.lam == 0.3
        assert hyper.beta == 0.1
        assert hyper.step_cap == 5.0
        assert hyper.schedule == "motaps_decreasing"
        assert hyper.mu == 0.05
