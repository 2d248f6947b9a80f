import pytest

from dqqpft.verify import all_passed, format_report, run_verify


@pytest.fixture(scope="module")
def results():
    return run_verify(seed=7)


def test_suite_passes_and_reports_diagnostics(results):
    assert all_passed(results)
    names = {r.name for r in results}
    diagnostics = {r.name for r in results if r.diagnostic}
    # every asserted family is present
    for expected in (
        "quaternion-norm-multiplicative",
        "fft-vs-naive-dft",
        "fast-vs-direct",
        "roundtrip-direct",
        "energy-preservation",
        "qft-collapse",
        "qfrft-collapse-vs-oracle",
        "qlct-collapse-vs-oracle",
        "modulation-identity",
        "translation-circular-zero-chirp",
        "translation-nonwrapping-support",
        "conjugate-pure-components",
        "conjugate-general",
        "convolution-delta-identity",
        "convolution-factorisation-verified-regime",
        "dqft2-via-fft-vs-direct",
    ):
        assert expected in names and expected not in diagnostics
    assert diagnostics == {
        "translation-circular-chirped",
        "convolution-factorisation-general",
    }


def test_report_format_lines(results):
    text = format_report(results)
    lines = text.splitlines()
    assert lines[-1] == "RESULT PASS"
    for line in lines[:-1]:
        assert line.startswith(("PROPERTY ", "DIAGNOSTIC "))
        assert "max_dev=" in line
