import shlex
from pathlib import Path

import numpy as np
import pytest

import dqqpft.cli
import dqqpft.qconv
from dqqpft.cli import main
from dqqpft.io import QcsvError, read_image_ppm, read_qcsv, write_image_ppm, write_qcsv
from dqqpft.params import ParameterError, ParamSet, parse_param_pair, parse_preset, preset_qft
from dqqpft.qconv import conv_theorem_check, qp_convolve
from dqqpft.signal import QSignal2D, rel_deviation
from dqqpft.transform import make_config
from oracles import rand_params, rand_signal


@pytest.fixture
def example_qcsv(tmp_path):
    p1, p2 = preset_qft()
    cfg = make_config(p1, p2, 2, 2)
    path = tmp_path / "example2x2.qcsv"
    write_qcsv(path, QSignal2D.from_components([[35.0, 30.0], [25.0, 20.0]]), cfg)
    return path


def test_forward_worked_example(example_qcsv, tmp_path):
    out = tmp_path / "spec.qcsv"
    rc = main(["forward", "--preset", "qft", "--in", str(example_qcsv), "--out", str(out)])
    assert rc == 0
    spec, _ = read_qcsv(out)
    np.testing.assert_allclose(spec.w, [[55.0, 5.0], [10.0, 0.0]], atol=1e-12)


def test_forward_then_inverse_reproduces_input(tmp_path):
    rng = np.random.default_rng(0)
    p1, p2 = rand_params(rng), rand_params(rng)
    cfg = make_config(p1, p2, 5, 6, 0.7, 1.3)
    sig = rand_signal(rng, 5, 6)
    src = tmp_path / "src.qcsv"
    write_qcsv(src, sig, cfg)
    spec = tmp_path / "spec.qcsv"
    back = tmp_path / "back.qcsv"
    assert main(["forward", "--in", str(src), "--out", str(spec)]) == 0
    assert main(["inverse", "--in", str(spec), "--out", str(back)]) == 0
    got, got_cfg = read_qcsv(back)
    assert rel_deviation(got, sig) < 1e-8
    assert got_cfg.p1 == cfg.p1  # params travel through the pipeline


@pytest.mark.parametrize("pair", ["0,1,0,0,0:0,1,0,0,0", "-0.3,1,0,0,0:0.2,1,0,0,0"],
                         ids=["qft", "negative-a1"])
def test_explicit_params_flag(tmp_path, example_qcsv, pair):
    spaced = tmp_path / "spaced.qcsv"
    joined = tmp_path / "joined.qcsv"
    assert main(["forward", "--params", pair,
                 "--in", str(example_qcsv), "--out", str(spaced)]) == 0
    assert main(["forward", f"--params={pair}",
                 "--in", str(example_qcsv), "--out", str(joined)]) == 0
    spec, _ = read_qcsv(spaced)
    np.testing.assert_array_equal(spec.comps, read_qcsv(joined)[0].comps)
    if pair.startswith("0,"):
        np.testing.assert_allclose(spec.w, [[55.0, 5.0], [10.0, 0.0]], atol=1e-12)


def test_ppm_forward_and_inverse(tmp_path):
    from dqqpft.io import read_image_ppm, write_image_ppm
    rng = np.random.default_rng(1)
    rgb = rng.integers(0, 256, size=(4, 4, 3))
    img = QSignal2D.from_components(np.zeros((4, 4)), rgb[..., 0], rgb[..., 1], rgb[..., 2])
    src = tmp_path / "img.ppm"
    write_image_ppm(src, img, "pure")
    spec = tmp_path / "spec.qcsv"
    back = tmp_path / "back.ppm"
    assert main(["forward", "--preset", "qft", "--in", str(src), "--out", str(spec)]) == 0
    assert main(["inverse", "--in", str(spec), "--out", str(back)]) == 0
    got = read_image_ppm(back, "pure")
    np.testing.assert_array_equal(got.comps, img.comps)


def _rgb_image(path, seed):
    rgb = np.random.default_rng(seed).integers(0, 256, size=(3, 2, 3))
    img = QSignal2D.from_components(np.zeros((3, 2)), rgb[..., 0], rgb[..., 1], rgb[..., 2])
    write_image_ppm(path, img, "pure")
    return img


def test_upper_case_ppm_input_is_read_as_image(tmp_path):
    _rgb_image(tmp_path / "a.PPM", 2)
    _rgb_image(tmp_path / "b.ppm", 2)
    for name in ("a.PPM", "b.ppm"):
        assert main(["forward", "--preset", "qft", "--in", str(tmp_path / name),
                     "--out", str(tmp_path / f"{name}.qcsv")]) == 0
    assert (tmp_path / "a.PPM.qcsv").read_bytes() == (tmp_path / "b.ppm.qcsv").read_bytes()


def test_upper_case_ppm_conv_output_is_usage_error(tmp_path, example_qcsv, capsys):
    out = tmp_path / "x.PPM"
    assert main(["conv", "--in", str(example_qcsv), "--in2", str(example_qcsv),
                 "--out", str(out)]) == 2
    assert "convolution output must be qcsv" in capsys.readouterr().err
    assert not out.exists()


def test_upper_case_ppm_inverse_output_is_written_as_image(tmp_path):
    img = _rgb_image(tmp_path / "img.ppm", 3)
    spec = tmp_path / "spec.qcsv"
    back = tmp_path / "b.PPM"
    assert main(["forward", "--preset", "qft", "--in", str(tmp_path / "img.ppm"),
                 "--out", str(spec)]) == 0
    assert main(["inverse", "--in", str(spec), "--out", str(back)]) == 0
    assert back.read_bytes().startswith(b"P6")
    np.testing.assert_array_equal(read_image_ppm(back, "pure").comps, img.comps)


def test_usage_errors_exit_2(tmp_path, example_qcsv, capsys):
    assert main(["forward", "--in", str(example_qcsv)]) == 2  # missing --out
    out = tmp_path / "o.qcsv"
    # conflicting parameter sources
    assert main(["forward", "--preset", "qft", "--params", "0,1,0,0,0:0,1,0,0,0",
                 "--in", str(example_qcsv), "--out", str(out)]) == 2
    # image input without parameters
    img = tmp_path / "img.ppm"
    img.write_bytes(b"P6\n1 1\n255\n" + bytes(3))
    assert main(["forward", "--in", str(img), "--out", str(out)]) == 2
    # b = 0 in the flag value is a usage problem
    assert main(["forward", "--params", "0,0,0,0,0:0,1,0,0,0",
                 "--in", str(example_qcsv), "--out", str(out)]) == 2
    # spectra must go to qcsv
    assert main(["forward", "--preset", "qft", "--in", str(example_qcsv),
                 "--out", str(tmp_path / "spec.ppm")]) == 2
    # the CLI runs the fast path only; the direct sum is a library reference
    assert main(["forward", "--method", "direct", "--preset", "qft",
                 "--in", str(example_qcsv), "--out", str(out)]) == 2
    capsys.readouterr()


def test_io_errors_exit_3(tmp_path, capsys):
    out = tmp_path / "o.qcsv"
    assert main(["forward", "--preset", "qft", "--in", str(tmp_path / "nope.qcsv"),
                 "--out", str(out)]) == 3
    bad = tmp_path / "bad.qcsv"
    bad.write_text("2,2\n1,1\n0,0,0,0,0:0,1,0,0,0\n" + "1,0,0,0\n" * 4)
    assert main(["forward", "--in", str(bad), "--out", str(out)]) == 3
    huge = tmp_path / "huge.qcsv"
    huge.write_text("100000,100000\n1,1\n0,1,0,0,0:0,1,0,0,0\n1,0,0,0\n")
    assert main(["inverse", "--in", str(huge), "--out", str(out)]) == 3
    capsys.readouterr()


def test_number_too_large_for_a_float_exits_3_for_a_header_and_2_for_a_flag(
        tmp_path, example_qcsv, capsys):
    out = tmp_path / "o.qcsv"
    bad = tmp_path / "huge_size.qcsv"
    bad.write_text("1" + "0" * 400 + ",1\n1,1\n0,1,0,0,0:0,1,0,0,0\n1,0,0,0\n")
    assert main(["forward", "--in", str(bad), "--out", str(out)]) == 3
    header_err = capsys.readouterr().err
    assert main(["forward", "--preset", "qft", "--dt", "1" + "0" * 400 + ",1",
                 "--in", str(example_qcsv), "--out", str(out)]) == 2
    flag_err = capsys.readouterr().err
    for err, name in ((header_err, "n1"), (flag_err, "dt1")):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {name} must be")
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "inverse", "conv"])
def test_overflowing_result_exits_3_naming_the_overflow(tmp_path, capsys, command):
    # finite samples near the float64 limit overflow on their way through
    # (a 1 x 1 transform in its planes split, a 2 x 1 convolution in its sums);
    # warnings are errors here, so any warning would escape main
    n1 = 2 if command == "conv" else 1
    big = tmp_path / "big.qcsv"
    big.write_text(f"{n1},1\n1,1\n0,1,0,0,0:0,1,0,0,0\n" + "1e308,1e308,1e308,1e308\n" * n1)
    second = ["--in2", str(big)] if command == "conv" else []
    assert main([command, "--in", str(big), *second, "--out", str(tmp_path / "o.qcsv")]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: result overflowed float64: signal contains non-finite samples"]


def test_forward_ppm_output_is_rejected_before_reading_input(tmp_path, capsys):
    out = tmp_path / "o.ppm"
    assert main(["forward", "--preset", "qft", "--in", str(tmp_path / "missing.ppm"),
                 "--out", str(out)]) == 2
    assert "forward output must be qcsv" in capsys.readouterr().err
    assert not out.exists()


def test_non_ascii_qcsv_exits_3_naming_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.qcsv"
    bad.write_bytes(b"2,2\n1,1\n0,1,0,0,0:0,1,0,0,0\n1,0,0,0\n2,\x82,0,0\n3,0,0,0\n4,0,0,0\n")
    assert main(["forward", "--in", str(bad), "--out", str(tmp_path / "o.qcsv")]) == 3
    assert "line 5: non-ASCII byte 0x82" in capsys.readouterr().err


def test_conv_with_check_report(tmp_path, example_qcsv, capsys):
    out = tmp_path / "conv.qcsv"
    rc = main(["conv", "--in", str(example_qcsv), "--in2", str(example_qcsv),
               "--out", str(out), "--check"])
    assert rc == 0
    captured = capsys.readouterr()
    assert "max_abs_deviation" in captured.out
    got, _ = read_qcsv(out)
    assert got.shape == (2, 2)


def test_conv_check_convolves_once(tmp_path, capsys, monkeypatch):
    p1, p2 = preset_qft()
    cfg = make_config(p1, p2, 4, 5)
    fpath, gpath = _conv_pair(tmp_path, cfg, cfg, 4, 5)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return qp_convolve(*args, **kwargs)

    monkeypatch.setattr(dqqpft.cli, "qp_convolve", counting)
    monkeypatch.setattr(dqqpft.qconv, "qp_convolve", counting)
    rc = main(["conv", "--in", str(fpath), "--in2", str(gpath),
               "--out", str(tmp_path / "conv.qcsv"), "--check"])
    assert rc == 0
    assert len(calls) == 1
    monkeypatch.undo()
    # the report is the one the check gives when it convolves on its own
    f, g = read_qcsv(fpath)[0], read_qcsv(gpath)[0]
    assert capsys.readouterr().out == conv_theorem_check(f, g, cfg).to_text() + "\n"


def test_conv_shape_mismatch_is_usage_error(tmp_path, example_qcsv):
    p1, p2 = preset_qft()
    other = tmp_path / "other.qcsv"
    write_qcsv(other, QSignal2D.zeros(3, 3), make_config(p1, p2, 3, 3))
    rc = main(["conv", "--in", str(example_qcsv), "--in2", str(other),
               "--out", str(tmp_path / "o.qcsv")])
    assert rc == 2


def test_conv_ppm_output_is_usage_error(tmp_path, example_qcsv, capsys):
    out = tmp_path / "conv.ppm"
    rc = main(["conv", "--in", str(example_qcsv), "--in2", str(example_qcsv),
               "--out", str(out)])
    assert rc == 2
    assert "convolution output must be qcsv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["forward", "inverse", "conv"])
def test_parameter_flags_documented_on_every_transform_command(command, capsys):
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    for metavar in ("A1,B1,C1,D1,E1:A2,B2,C2,D2,E2", "DT1,DT2"):
        assert metavar in text
    assert "named parameter family" in text


def _conv_pair(tmp_path, cfg1, cfg2, n1=5, n2=9):
    rng = np.random.default_rng(11)
    paths = tmp_path / "f.qcsv", tmp_path / "g.qcsv"
    for path, cfg in zip(paths, (cfg1, cfg2)):
        write_qcsv(path, rand_signal(rng, n1, n2), cfg)
    return paths


def test_conv_rectangular_chirped_grid(tmp_path, capsys):
    pair = "-0.3,1.1,0.2,0,0:0.4,-0.8,0,0.1,0"
    p1, p2 = preset_qft()
    fpath, gpath = _conv_pair(tmp_path, make_config(p1, p2, 5, 9, 0.5, 1.25),
                              make_config(p1, p2, 5, 9, 0.5, 1.25))
    out = tmp_path / "conv.qcsv"
    rc = main(["conv", f"--params={pair}", "--in", str(fpath), "--in2", str(gpath),
               "--out", str(out), "--check"])
    assert rc == 0
    assert "max_rel_deviation" in capsys.readouterr().out
    got, got_cfg = read_qcsv(out)
    cfg = make_config(*parse_param_pair(pair), 5, 9, 0.5, 1.25)
    assert got_cfg == cfg
    want = qp_convolve(read_qcsv(fpath)[0], read_qcsv(gpath)[0], cfg)
    np.testing.assert_array_equal(got.comps, want.comps)


@pytest.mark.parametrize("field", ["dt", "params"])
def test_conv_header_mismatch_is_usage_error(tmp_path, capsys, field):
    p1, p2 = preset_qft()
    q1, q2 = (parse_param_pair("0.2,1,0,0,0:0,1,0,0,0") if field == "params" else (p1, p2))
    dt2 = 0.5 if field == "dt" else 1.0
    fpath, gpath = _conv_pair(tmp_path, make_config(p1, p2, 5, 9),
                              make_config(q1, q2, 5, 9, 1.0, dt2))
    rc = main(["conv", "--in", str(fpath), "--in2", str(gpath),
               "--out", str(tmp_path / "o.qcsv")])
    assert rc == 2
    assert f"differ in {field}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--params=0,1,0,0,0:0,1,0,0,0", "--preset=qft", "--dt=1,1"])
def test_conv_flags_override_header_mismatch(tmp_path, flag):
    p1, p2 = preset_qft()
    q1, q2 = parse_param_pair("0.2,1,0,0,0:0,1,0,0,0")
    fpath, gpath = _conv_pair(tmp_path, make_config(p1, p2, 5, 9),
                              make_config(q1, q2, 5, 9, 0.5, 2.0))
    out = tmp_path / "o.qcsv"
    assert main(["conv", flag, "--in", str(fpath), "--in2", str(gpath),
                 "--out", str(out)]) == 0
    assert read_qcsv(out)[0].shape == (5, 9)


def test_bench_prints_speedup_table(capsys):
    assert main(["bench", "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out
    for size in ("16x16", "32x32", "64x64"):
        assert size in out


@pytest.mark.parametrize("repeats", ["0", "-3"])
def test_bench_rejects_repeats_below_one(capsys, repeats):
    assert main(["bench", "--repeats", repeats]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--repeats: must be at least 1" in captured.err


@pytest.mark.parametrize("repeats", [0, -3])
def test_run_bench_rejects_repeats_below_one(repeats):
    import dqqpft.bench

    with pytest.raises(ValueError, match="repeats must be at least 1"):
        dqqpft.bench.run_bench(sizes=(4,), repeats=repeats)


@pytest.mark.parametrize("preset", ["qfrft:inf,1", "qlct:1,inf,3:0.5,1,1.5"])
def test_non_finite_preset_is_usage_error_naming_it(example_qcsv, tmp_path, capsys, preset):
    assert main(["forward", "--preset", preset, "--in", str(example_qcsv),
                 "--out", str(tmp_path / "o.qcsv")]) == 2
    err = capsys.readouterr().err
    assert "must be finite, got" in err and "inf" in err
    assert "math domain error" not in err


@pytest.mark.parametrize("preset", ["qfrft:1e-320,1", "qlct:1e300,1e-10,0:1,1,1"])
def test_overflowing_preset_is_usage_error_naming_its_triple(example_qcsv, tmp_path, capsys,
                                                            preset):
    assert main(["forward", "--preset", preset, "--in", str(example_qcsv),
                 "--out", str(tmp_path / "o.qcsv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "linear-canonical triple" in lines[0] and "overflows float64" in lines[0]


# finite flag values whose axis-1 kernel phase or time step squared overflows float64
OVERFLOWING_PHASES = [
    ("--preset", "qft", (1e-310, 1.0)),
    ("--params", "0.5,1,0,0,0:0,1,0,0,0", (1e200, 1.0)),
    ("--params", "0,1,0.5,0,0:0,1,0,0,0", (1e-200, 1.0)),
    ("--preset", "qfrft:0.7,1.2", (1e200, 1.0)),
    ("--preset", "qft", (1e200, 1.0)),
]


@pytest.mark.parametrize("flag, value, dt", OVERFLOWING_PHASES)
def test_overflowing_phase_is_usage_error_naming_the_axis(tmp_path, capsys, flag, value, dt):
    img = tmp_path / "img.ppm"
    img.write_bytes(b"P6\n5 3\n255\n" + bytes(range(0, 225, 5)))
    out = tmp_path / "bad.qcsv"
    assert main(["forward", flag, value, "--dt", f"{dt[0]!r},{dt[1]!r}",
                 "--in", str(img), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "axis 1" in lines[0]
    assert not out.exists()
    pair = parse_param_pair(value) if flag == "--params" else parse_preset(value)
    with pytest.raises(ParameterError, match="axis 1"):
        make_config(*pair, 3, 5, *dt)


@pytest.mark.parametrize("dt", [["--dt", "-1,1"], ["--dt=-1,1"]])
def test_negative_dt_is_read_as_a_value_and_refused_naming_it(tmp_path, capsys, dt):
    # a separate value starting with '-' reaches the step check, as for --params
    img = tmp_path / "img.ppm"
    img.write_bytes(b"P6\n5 3\n255\n" + bytes(range(0, 225, 5)))
    out = tmp_path / "bad.qcsv"
    assert main(["forward", "--preset", "qft", *dt, "--in", str(img), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "dt1" in lines[0]
    assert not out.exists()


def test_qcsv_header_with_overflowing_phase_is_a_file_error(tmp_path, capsys):
    bad = tmp_path / "tiny_dt.qcsv"
    bad.write_text("2,2\n1e-310,1\n0,1,0,0,0:0,1,0,0,0\n" + "1,0,0,0\n" * 4)
    with pytest.raises(QcsvError, match="axis 1"):
        read_qcsv(bad)
    assert main(["forward", "--in", str(bad), "--out", str(tmp_path / "o.qcsv")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "axis 1" in lines[0]


def test_conv_with_overflowing_step_square_exits_2_for_a_flag_and_3_for_a_header(
        tmp_path, example_qcsv, capsys):
    # a = 0 keeps dt out of the qft phase, but qp_convolve's chirps square it
    out = tmp_path / "c.qcsv"
    assert main(["conv", "--preset", "qft", "--dt", "1e200,1", "--in", str(example_qcsv),
                 "--in2", str(example_qcsv), "--out", str(out)]) == 2
    bad = tmp_path / "huge_dt.qcsv"
    bad.write_text("2,2\n1e200,1\n0,1,0,0,0:0,1,0,0,0\n" + "1,0,0,0\n" * 4)
    assert main(["conv", "--in", str(bad), "--in2", str(bad), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: axis 1: ") for line in lines)
    assert not out.exists()


def test_conv_with_overflowing_chirp_exits_2_for_a_flag_and_3_for_a_header(
        tmp_path, capsys):
    # the kernel phase 3e307*2^2 is finite on a 3x5 grid, the convolution
    # chirp 2*3e307*2*2 is not; the suite turns any RuntimeWarning into an error
    pair = "3e307,1,0,0,0:0,1,0,0,0"
    spec = tmp_path / "spec.qcsv"
    write_qcsv(spec, QSignal2D.from_components(np.arange(15.0).reshape(3, 5)),
               make_config(*preset_qft(), 3, 5))
    out = tmp_path / "c.qcsv"
    assert main(["conv", "--params", pair, "--in", str(spec), "--in2", str(spec),
                 "--out", str(out)]) == 2
    bad = tmp_path / "huge_a.qcsv"
    header_and_body = spec.read_text().split("\n")
    header_and_body[3] = pair
    bad.write_text("\n".join(header_and_body))
    flag_err = capsys.readouterr().err
    assert main(["conv", "--in", str(bad), "--in2", str(bad), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    for err in (flag_err, captured.err):
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: axis 1: ")
        assert "convolution chirp" in lines[0]
    assert not out.exists()
    with pytest.raises(ParameterError, match="axis 1"):
        make_config(*parse_param_pair(pair), 3, 5)
    # at N1 = 1 the chirp is 2*a*0*0, which reads inf*0 = NaN once 2*a overflows
    with pytest.raises(ParameterError, match="axis 1"):
        make_config(ParamSet(1e308, 1.0, 0.0, 0.0, 0.0), ParamSet(0.0, 1.0, 0.0, 0.0, 0.0), 1, 5)


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed=-7"]])
def test_verify_rejects_negative_seed_as_usage_error(capsys, argv):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed: must be at least 0" in captured.err


def test_measurement_helpers_stay_out_of_package_namespace():
    import dqqpft
    import dqqpft.bench

    for name in ("BenchRow", "format_table", "run_bench"):
        assert not hasattr(dqqpft, name)
    # aliases of an operator, a method or another public function
    for name in ("lmul", "rmul", "mul", "conjugate", "norm", "norm_sq", "scalar_part",
                 "symplectic_split", "symplectic_join", "preset", "energy"):
        assert not hasattr(dqqpft, name)
    # the chirp-DFT-chirp factorisation has one implementation, the fast path,
    # and the plain two-sided DFT is forward_direct at the qft preset
    for name in ("forward_via_dqft", "dqft2"):
        assert not hasattr(dqqpft, name)
    assert not hasattr(dqqpft.transform, "dqft2")
    # pieces of the fast path, kept in dqqpft.fast for the benchmark's tracer,
    # and the grid builder the derived frequency steps replaced
    for name in ("make_psi", "dqft2_via_fft", "make_grid"):
        assert not hasattr(dqqpft, name)
    assert not {"make_psi", "dqft2_via_fft"} & set(dqqpft.fast.__all__)
    # second names of the constructor and of from_components, and the
    # recombination shortcut that verify once carried only to measure it
    assert not hasattr(dqqpft, "embed_complex")
    assert not hasattr(dqqpft.quaternion, "embed_complex")
    assert not hasattr(dqqpft.QSignal2D, "from_real")
    for name in ("_alt_dqft2", "_mixed_axis_grid"):
        assert not hasattr(dqqpft.verify, name)
    # the convolution theorem and the identity helpers run on the complex
    # view, not on quaternion products, and every identity takes its
    # spectra from the one fast transform, with no second entry point
    assert not hasattr(dqqpft.qconv, "qmul")
    for name in ("qmul", "I", "J", "_modulation_rhs_of"):
        assert not hasattr(dqqpft.transform, name)
    # one planes join, with its 1/2, and one kernel builder
    for name in ("_join_planes", "_kernel_factors", "_kernel_matrix"):
        assert not hasattr(dqqpft.transform, name)
    # the identity helpers live beside the fast transform they call, and the
    # direct reference imports nothing from the fast path
    helpers = ("modulation_rhs", "translation_rhs", "conjugate_transform_decomposition")
    for name in (*helpers, "_fast_spectra", "_time_chirp", "_freq_chirp"):
        assert not hasattr(dqqpft.transform, name)
    assert set(helpers) <= set(dqqpft.fast.__all__)
    assert dqqpft.modulation_rhs is dqqpft.fast.modulation_rhs
    rows = dqqpft.bench.run_bench(sizes=(4,), repeats=1)
    assert [row.size for row in rows] == [4]
    assert "4x4" in dqqpft.bench.format_table(rows)


def test_verify_deterministic_and_green(capsys):
    assert main(["verify", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--seed", "42"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "RESULT PASS" in first
    assert "PROPERTY" in first and "DIAGNOSTIC" in first
    assert " FAIL " not in first


def test_readme_quick_start_runs():
    # a public name deleted from the package must not linger in the quick start
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    assert rel_deviation(namespace["F2"], namespace["F"]) < 1e-12
    assert rel_deviation(namespace["back"], namespace["f"]) < 1e-12


def test_readme_cli_examples_parse():
    # a flag deleted from the CLI must not linger in the documented examples
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    assert len(commands) >= 7 and all(line.startswith("dqqpft ") for line in commands)
    parser = dqqpft.cli._build_parser()
    for line in commands:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(dqqpft.cli._attach_params_value(argv)).command == argv[0]
