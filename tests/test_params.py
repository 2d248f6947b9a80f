import math

import numpy as np
import pytest

from dqqpft.params import (
    Grid,
    ParameterError,
    ParamSet,
    format_param_pair,
    make_grid,
    parse_param_pair,
    parse_preset,
    preset_qfrft,
    preset_qft,
    preset_qlct,
)


def test_paramset_rejects_zero_b():
    with pytest.raises(ParameterError):
        ParamSet(0, 0, 0, 0, 0)


def test_paramset_rejects_non_finite():
    with pytest.raises(ParameterError):
        ParamSet(float("nan"), 1, 0, 0, 0)
    with pytest.raises(ParameterError):
        ParamSet(0, float("inf"), 0, 0, 0)


def test_make_grid_sampling_relation():
    p = ParamSet(0, 1, 0, 0, 0)
    g = make_grid(4, 4, 0.5, 0.5, p, p)
    assert g.du1 == pytest.approx(math.pi, rel=0, abs=0)
    assert g.du2 == pytest.approx(math.pi)
    g1 = make_grid(1, 1, 1.0, 1.0, p, p)
    assert g1.du1 == pytest.approx(2 * math.pi)


def test_make_grid_general_b():
    p1 = ParamSet(0.3, -1.7, 0.1, 0.2, 0.4)
    p2 = ParamSet(0, 0.25, 0, 0, 0)
    g = make_grid(6, 10, 0.8, 1.25, p1, p2)
    assert g.du1 == 2 * math.pi * -1.7 / (6 * 0.8)
    assert g.du2 == 2 * math.pi * 0.25 / (10 * 1.25)


def test_make_grid_rejects_bad_sizes_and_steps():
    p = ParamSet(0, 1, 0, 0, 0)
    with pytest.raises(ParameterError):
        make_grid(0, 4, 1, 1, p, p)
    with pytest.raises(ParameterError):
        make_grid(4, -1, 1, 1, p, p)
    with pytest.raises(ParameterError):
        make_grid(4, 4, 0.0, 1, p, p)
    with pytest.raises(ParameterError):
        make_grid(4, 4, 1, -2.0, p, p)


def test_grid_construction_is_deterministic():
    p1 = ParamSet(0.11, 1.3, -0.7, 0.2, 0.9)
    p2 = ParamSet(-0.5, -0.8, 0.6, 0.1, -0.3)
    a = make_grid(7, 9, 0.77, 1.31, p1, p2)
    b = make_grid(7, 9, 0.77, 1.31, p1, p2)
    assert a == b  # bit-identical fields, dataclass equality


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
    g = Grid(2, 3, 1.0, 1.0, 1.0, 2.0)
    assert g.n1 == 2 and g.n2 == 3
