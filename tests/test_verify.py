import pytest

from dqqpft.verify import all_passed, format_report, run_verify


@pytest.fixture(scope="module")
def results():
    return run_verify(seed=7)


# every PROPERTY with its tolerance, and the DIAGNOSTICs (tolerance None):
# a property that is renamed, dropped or loosened fails here
REPORT = {
    "quaternion-norm-multiplicative": 1e-12,
    "quaternion-cyclic-scalar": 1e-12,
    "complex-embed-j-rule": 0.0,
    "fft-vs-naive-dft": 1e-11,
    "fft-roundtrip": 1e-11,
    "kernel-modulus": 1e-12,
    "linearity": 1e-12,
    "fast-vs-direct": 1e-10,
    "roundtrip-direct": 1e-10,
    "roundtrip-fast": 1e-10,
    "energy-preservation": 1e-10,
    "qft-collapse": 1e-12,
    "qfrft-collapse-vs-oracle": 1e-12,
    "qlct-collapse-vs-oracle": 1e-12,
    "dqpft1d-vs-loop": 1e-12,
    "modulation-identity": 1e-10,
    "translation-circular-zero-chirp": 1e-10,
    "translation-nonwrapping-support": 1e-10,
    "translation-circular-chirped": None,
    "conjugate-pure-components": 1e-10,
    "conjugate-general": 1e-10,
    "convolution-delta-identity": 0.0,
    "convolution-zero-chirp-vs-oracle": 1e-12,
    "convolution-factorisation-verified-regime": 1e-10,
    "convolution-factorisation-general": None,
    "dqft2-via-fft-vs-direct": 1e-10,
    "sided-agree-on-real-signals": 1e-12,
}


def test_suite_passes_and_reports_diagnostics(results):
    assert all_passed(results)
    assert [r.name for r in results] == list(REPORT)
    assert {r.name: r.tol for r in results} == REPORT


def test_report_format_lines(results):
    text = format_report(results)
    lines = text.splitlines()
    assert lines[-1] == "RESULT PASS"
    for line in lines[:-1]:
        assert line.startswith(("PROPERTY ", "DIAGNOSTIC "))
        assert "max_dev=" in line
