import math

import numpy as np
import pytest

from dqqpft.params import (
    Grid,
    ParameterError,
    ParamSet,
    format_param_pair,
    parse_param_pair,
    parse_preset,
    preset_qfrft,
    preset_qft,
    preset_qlct,
)
from dqqpft.transform import make_config


def test_paramset_rejects_zero_b():
    with pytest.raises(ParameterError):
        ParamSet(0, 0, 0, 0, 0)


def test_paramset_rejects_non_finite():
    with pytest.raises(ParameterError):
        ParamSet(float("nan"), 1, 0, 0, 0)
    with pytest.raises(ParameterError):
        ParamSet(0, float("inf"), 0, 0, 0)


def test_paramset_stores_python_floats():
    # np.float64 subclasses float, so the check is on the exact type
    p = ParamSet(np.float64(0.5), 1, 0, 0, 0)
    assert all(type(v) is float for v in p.as_tuple())


@pytest.mark.parametrize("b", [1e308, np.float64(1e308)], ids=["float", "numpy-scalar"])
def test_overflowing_frequency_step_is_refused_for_any_float_type(b):
    # du = 2*pi*b/(2*0.5) overflows; a numpy-scalar b is refused by the same rule
    qft = ParamSet(0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterError, match="^axis 1: kernel phase overflows float64"):
        make_config(ParamSet(0.0, b, 0.0, 0.0, 0.0), qft, 2, 2, 0.5)


def test_make_grid_sampling_relation():
    # du = 2*pi*b/(N*dt) is derived by the config, not stored on the grid
    p = ParamSet(0, 1, 0, 0, 0)
    cfg = make_config(p, p, 4, 4, 0.5, 0.5)
    assert cfg.du1 == math.pi and cfg.du2 == math.pi
    assert make_config(p, p, 1, 1).du1 == 2 * math.pi
    with pytest.raises(AttributeError):
        cfg.du1 = 1.0


def test_make_grid_general_b():
    p1 = ParamSet(0.3, -1.7, 0.1, 0.2, 0.4)
    p2 = ParamSet(0, 0.25, 0, 0, 0)
    cfg = make_config(p1, p2, 6, 10, 0.8, 1.25)
    assert cfg.du1 == 2 * math.pi * -1.7 / (6 * 0.8)
    assert cfg.du2 == 2 * math.pi * 0.25 / (10 * 1.25)


def test_grid_rejects_bad_sizes_and_steps():
    for fields, name in (((0, 4, 1, 1), "n1"), ((4, -1, 1, 1), "n2"),
                         ((4.0, 4, 1, 1), "n1"), ((True, 4, 1, 1), "n1"),
                         ((4, 4, 0.0, 1), "dt1"), ((4, 4, 1, -2.0), "dt2"),
                         ((4, 4, math.inf, 1), "dt1"), ((4, 4, 1, math.nan), "dt2")):
        with pytest.raises(ParameterError, match=f"^{name} must be a positive"):
            Grid(*fields)


@pytest.mark.parametrize("build, message", [
    (lambda: ParamSet(10**400, 1, 0, 0, 0), "^parameter set must be finite"),
    (lambda: Grid(2, 2, 10**400, 1.0), "^dt1 must be a positive finite step"),
    (lambda: make_config(*preset_qft(), 10**400, 1), "^n1 must be at most 2\\*\\*53"),
    (lambda: preset_qfrft(10**400, 1), "^fractional angle must be finite"),
    (lambda: preset_qlct((10**400, 1, 0), (1, 1, 1)), "^linear-canonical triple must be finite"),
], ids=["paramset", "grid-step", "config-size", "qfrft-angle", "qlct-triple"])
def test_an_int_too_large_for_a_float_is_refused_by_the_library_error(build, message):
    with pytest.raises(ParameterError, match=message):
        build()


def test_grid_sizes_stop_at_2_to_the_53():
    # every sample index then lies below 2**53, where the kernel phases are exact
    assert make_config(*preset_qft(), 2**53, 1).grid.n1 == 2**53
    assert Grid(1, 2**53, 1, 1).n2 == 2**53
    for n1, n2, name in ((2**53 + 1, 1, "n1"), (1, 2**53 + 1, "n2"), (2**60, 1, "n1")):
        with pytest.raises(ParameterError, match=f"^{name} must be at most 2\\*\\*53"):
            make_config(*preset_qft(), n1, n2)


def test_grid_construction_is_deterministic():
    a = Grid(7, 9, 0.77, 1.31)
    b = Grid(np.int64(7), 9, np.float64(0.77), 1.31)
    assert a == b and hash(a) == hash(b)  # bit-identical fields, dataclass equality
    assert type(b.n1) is int and type(b.dt1) is float
    assert type(Grid(2, 2, 1, 1).dt1) is float


def test_preset_qft():
    p1, p2 = preset_qft()
    assert p1 == ParamSet(0, 1, 0, 0, 0)
    assert p2 == ParamSet(0, 1, 0, 0, 0)
    assert parse_preset("qft") == (p1, p2)


def test_preset_qfrft_right_angle_is_exactly_qft():
    got = preset_qfrft(math.pi / 2, math.pi / 2)
    assert got == preset_qft()


def test_preset_qfrft_values():
    th = 1.1
    p1, _ = preset_qfrft(th, th)
    assert p1.a == pytest.approx(-math.cos(th) / math.sin(th) / 2)
    assert p1.b == pytest.approx(1 / math.sin(th))
    assert p1.c == p1.a
    assert p1.d == 0 and p1.e == 0


def test_preset_qfrft_text_is_pinned():
    # the qlct preset at (cos t, sin t, cos t), printed as the qcsv header prints it
    assert format_param_pair(*preset_qfrft(0.7, 1.2)) == (
        "-0.59362091606333978,1.5522703269571041,-0.59362091606333978,0,0:"
        "-0.19438978468410248,1.0729163777098973,-0.19438978468410248,0,0")
    # the cos snap keeps -cot/2 a signed zero at right angles
    assert format_param_pair(*preset_qfrft(math.pi / 2, -math.pi / 2)) == \
        "-0,1,-0,0,0:0,-1,0,0,0"


def test_preset_qfrft_degenerate_angle():
    with pytest.raises(ParameterError):
        preset_qfrft(0.0, 1.0)
    with pytest.raises(ParameterError):
        preset_qfrft(1.0, 0.0)


def test_preset_qlct():
    p1, p2 = preset_qlct((1.0, 2.0, 3.0), (0.5, -0.5, 1.5))
    assert p1 == ParamSet(-0.25, 0.5, -0.75, 0, 0)
    assert p2 == ParamSet(0.5, -2.0, 1.5, 0, 0)
    with pytest.raises(ParameterError):
        preset_qlct((1.0, 0.0, 3.0), (0.5, 1.0, 1.5))


@pytest.mark.parametrize("build, value", [
    (lambda: preset_qfrft(math.inf, 1.0), "inf"),
    (lambda: preset_qfrft(1.0, math.nan), "nan"),
    (lambda: preset_qlct((1.0, math.inf, 3.0), (0.5, 1.0, 1.5)), "inf"),
    (lambda: preset_qlct((1.0, 2.0, 3.0), (-math.inf, 1.0, 1.5)), "-inf"),
], ids=["qfrft-inf", "qfrft-nan", "qlct-b-inf", "qlct-a-minus-inf"])
def test_presets_name_a_non_finite_value(build, value):
    with pytest.raises(ParameterError, match=f"must be finite, got .*{value}"):
        build()


@pytest.mark.parametrize("build", [
    lambda: preset_qfrft(1e-320, 1.0),
    lambda: preset_qlct((1e300, 1e-10, 0.0), (1.0, 1.0, 1.0)),
    lambda: preset_qlct((np.float64(1e300), 1e-10, 0.0), (1.0, 1.0, 1.0)),
], ids=["qfrft-tiny-angle", "qlct-huge-a-tiny-b", "qlct-numpy-scalar-a"])
def test_presets_name_the_triple_whose_derived_values_overflow(build):
    # finite inputs whose -a/2b or 1/b overflows are refused by the triple
    # the preset derived them from, not by the quintuple of infinities
    with pytest.raises(ParameterError, match=r"linear-canonical triple .* overflows float64"):
        build()


def test_param_pair_text_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(20):
        vals = rng.uniform(-3, 3, size=10)
        vals[1] = vals[1] or 1.0
        vals[6] = vals[6] or 1.0
        p1 = ParamSet(*vals[:5])
        p2 = ParamSet(*vals[5:])
        back1, back2 = parse_param_pair(format_param_pair(p1, p2))
        assert back1 == p1 and back2 == p2


def test_param_pair_parse_errors():
    with pytest.raises(ParameterError):
        parse_param_pair("1,2,3,4,5")
    with pytest.raises(ParameterError):
        parse_param_pair("1,2,3,4:1,2,3,4,5")
    with pytest.raises(ParameterError):
        parse_param_pair("1,2,x,4,5:1,2,3,4,5")
    with pytest.raises(ParameterError):
        parse_param_pair("1,0,3,4,5:1,2,3,4,5")


def test_parse_preset_specs():
    assert parse_preset("qft") == preset_qft()
    assert parse_preset("qfrft:0.7,1.2") == preset_qfrft(0.7, 1.2)
    assert parse_preset("qlct:1,2,3:0.5,-0.5,1.5") == preset_qlct((1, 2, 3), (0.5, -0.5, 1.5))
    for bad in ("qft:1", "qfrft:1", "qlct:1,2,3", "mystery"):
        with pytest.raises(ParameterError):
            parse_preset(bad)


def test_grid_is_value_type():
    g = Grid(2, 3, 1.0, 2.0)
    assert g.n1 == 2 and g.n2 == 3
