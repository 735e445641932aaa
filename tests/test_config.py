"""Configuration schema, flat-format parsing, and validation rules."""

import numpy as np
import pytest
from dataclasses import replace

from topinf import (
    ExperimentConfig,
    default_config,
    format_config,
    load_config_file,
    parse_config,
)


def test_defaults_validate_and_count_times():
    heat = default_config("heat1d").validate()
    assert heat.problem == "heat1d"
    assert heat.n_subdomains == 3
    assert heat.n_times == 251
    wave = default_config("wave1d").validate()
    assert wave.n_subdomains == 4
    assert wave.n_times == 401
    with pytest.raises(ValueError):
        default_config("advection")


def test_format_parse_round_trip():
    for problem in ("heat1d", "wave1d"):
        cfg = default_config(problem)
        assert parse_config(format_config(cfg)) == cfg
    # floats with no short decimal form survive the repr round trip
    cfg = replace(default_config("heat1d"), t0=np.pi, tf=3.0 * np.pi, dt=np.pi / 50.0)
    assert parse_config(format_config(cfg)) == cfg


def test_minimal_file_gets_defaults():
    cfg = parse_config("problem = wave1d\n")
    assert cfg == default_config("wave1d")


def test_comments_blanks_and_overrides():
    text = """
    # an experiment
    problem = heat1d   # with defaults
    n_elements = 51

    seed = 99
    reduced_dims = 2, 4
    methods = lstsq
    breakpoints = 2.0, 4.0
    """
    cfg = parse_config(text)
    assert cfg.n_elements == 51
    assert cfg.seed == 99
    assert cfg.reduced_dims == (2, 4)
    assert cfg.methods == ("lstsq",)
    assert cfg.breakpoints == (2.0, 4.0)
    assert cfg.dt == default_config("heat1d").dt


def test_parse_rejections():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("problem = heat1d\nmesh = 50\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_config("problem = heat1d\nseed = 1\nseed = 2\n")
    with pytest.raises(ValueError, match="problem"):
        parse_config("seed = 1\n")
    with pytest.raises(ValueError, match="key 'seed'"):
        parse_config("problem = heat1d\nseed = twelve\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config("problem = heat1d\njust words\n")
    with pytest.raises(ValueError):
        parse_config("problem = burgers\n")


def test_validation_rules():
    base = default_config("heat1d")
    bad = [
        replace(base, n_elements=1),
        replace(base, breakpoints=(3.0, 2.0)),
        replace(base, breakpoints=(0.0, 1.0)),
        replace(base, breakpoints=(1.0, 7.0)),
        replace(base, param_lo=0.0),
        replace(base, param_lo=2.0, param_hi=1.0),
        replace(base, sampling="sobol"),
        replace(base, dt=-0.1),
        replace(base, tf=base.t0),
        replace(base, dt=0.3),  # does not divide tf - t0 = 2
        replace(base, n_train=0),
        replace(base, n_test=-1),
        replace(base, reduced_dims=()),
        replace(base, reduced_dims=(0, 2)),
        replace(base, reduced_dims=(4, 2)),
        replace(base, reduced_dims=(2, 2)),
        replace(base, methods=()),
        replace(base, methods=("ridge",)),
        replace(base, derivative="spectral"),
        replace(base, seed=-1),
        replace(base, seed=2**64),  # past the 64-bit word of the Philox key
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            cfg.validate()
    assert replace(base, n_test=0).validate().n_test == 0
    assert replace(base, seed=2**64 - 1).validate().seed == 2**64 - 1


@pytest.mark.parametrize("update, message", [
    # round() raised an uncaught OverflowError on these two
    (dict(tf=np.inf), "not a finite number of steps"),
    (dict(t0=-np.inf), "not a finite number of steps"),
    (dict(t0=-1e308, tf=1e308), "not a finite number of steps"),
    # passed with n_times = 1, and simulate-fom failed on non-finite bands
    (dict(dt=np.inf), "finite dt"),
    (dict(dt=np.nan), "finite dt"),
    (dict(t0=np.nan), "tf > t0"),
    # one step: infer failed on the three-point stencils after two stages ran
    (dict(tf=0.008), "finite_difference derivatives need at least 3 time points"),
    # no step at all, within the divisibility tolerance
    (dict(dt=1e9, derivative="exact"), "exact derivatives need at least 2 time points"),
], ids=["tf_inf", "t0_minus_inf", "span_overflows", "dt_inf", "dt_nan", "t0_nan",
        "one_step_finite_difference", "no_step_exact"])
def test_time_grids_that_no_stage_can_run_are_refused(update, message):
    with pytest.raises(ValueError, match=message):
        replace(default_config("heat1d"), **update).validate()


def test_one_step_is_enough_for_exact_derivatives():
    base = default_config("heat1d")
    assert replace(base, tf=base.dt, derivative="exact").validate().n_times == 2


def test_nearly_dividing_dt_is_accepted():
    base = default_config("heat1d")
    # 0.4 divides 2.0 only up to binary representation error
    assert replace(base, dt=0.4).validate().n_times == 6


def test_dataclass_is_frozen():
    cfg = default_config("heat1d")
    with pytest.raises(AttributeError):
        cfg.seed = 5


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("problem = heat1d\nn_elements = 31\n")
    cfg = load_config_file(path)
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.n_elements == 31
    with pytest.raises(FileNotFoundError):
        load_config_file(tmp_path / "missing.cfg")
