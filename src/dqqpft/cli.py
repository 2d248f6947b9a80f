"""Command-line surface: forward, inverse, conv, verify, bench.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
file-format error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as qio
from . import verify as verify_mod
from .bench import format_table, run_bench
from .fast import forward_fast, inverse_fast, make_plan
from .params import ParameterError, _parse_floats, parse_param_pair, parse_preset
from .qconv import conv_theorem_check, qp_convolve
from .signal import QSignal2D
from .transform import TWO_SIDED, TransformConfig, make_config

__all__ = ["main", "run"]


class UsageError(Exception):
    """Bad flag combination or flag value; maps to exit code 2."""


def _int_at_least(low: int):
    """argparse type for an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqqpft",
        description="Two-sided discrete quaternion quadratic-phase Fourier transform tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_param_flags(p):
        p.add_argument("--params", metavar="A1,B1,C1,D1,E1:A2,B2,C2,D2,E2",
                       help="explicit parameter quintuple per axis (b nonzero)")
        p.add_argument("--preset", metavar="qft|qfrft:T1,T2|qlct:A1,B1,D1:A2,B2,D2",
                       help="named parameter family instead of --params")
        p.add_argument("--dt", metavar="DT1,DT2",
                       help="sampling steps (default: input header, else 1,1)")

    def add_transform_flags(p):
        add_param_flags(p)
        p.add_argument("--mapping", choices=qio.MAPPINGS, default="pure",
                       help="pixel mapping used for ppm input/output")
        p.add_argument("--in", dest="infile", required=True, metavar="PATH")
        p.add_argument("--out", dest="outfile", required=True, metavar="PATH")

    fwd = sub.add_parser("forward", help="transform a qcsv grid or ppm image to a qcsv spectrum")
    add_transform_flags(fwd)
    fwd.set_defaults(func=_cmd_forward)

    inv = sub.add_parser("inverse", help="reconstruct a signal from a qcsv spectrum")
    add_transform_flags(inv)
    inv.set_defaults(func=_cmd_inverse)

    conv = sub.add_parser("conv", help="quadratic-phase convolution of two qcsv grids")
    add_param_flags(conv)
    conv.add_argument("--in", dest="infile", required=True, metavar="PATH")
    conv.add_argument("--in2", dest="infile2", required=True, metavar="PATH")
    conv.add_argument("--out", dest="outfile", required=True, metavar="PATH")
    conv.add_argument("--check", action="store_true",
                      help="also print the spectral factorisation report")
    conv.set_defaults(func=_cmd_conv)

    ver = sub.add_parser("verify", help="run the seeded invariant suite")
    ver.add_argument("--seed", type=_int_at_least(0), default=42)
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="time direct vs fast at 16, 32 and 64 square")
    ben.add_argument("--repeats", type=_int_at_least(1), default=3)
    ben.set_defaults(func=_cmd_bench)
    return parser


def _resolve_config(args, header_cfg: TransformConfig | None,
                    n1: int, n2: int) -> TransformConfig:
    """Flags win over the input header; missing steps default to 1,1."""
    if args.params and args.preset:
        raise UsageError("--params and --preset are mutually exclusive")
    try:
        if args.params:
            p1, p2 = parse_param_pair(args.params)
        elif args.preset:
            p1, p2 = parse_preset(args.preset)
        elif header_cfg is not None:
            p1, p2 = header_cfg.p1, header_cfg.p2
        else:
            raise UsageError("image input needs --params or --preset")
        if args.dt:
            dt1, dt2 = _parse_floats(args.dt, 2, "--dt")
        elif header_cfg is not None:
            dt1, dt2 = header_cfg.grid.dt1, header_cfg.grid.dt2
        else:
            dt1, dt2 = 1.0, 1.0
        return make_config(p1, p2, n1, n2, dt1, dt2, TWO_SIDED)
    except ParameterError as exc:
        raise UsageError(str(exc)) from None
    except ValueError as exc:
        raise UsageError(f"bad flag value: {exc}") from None


def _is_ppm(path: str) -> bool:
    """The format follows the suffix, in any letter case."""
    return str(path).lower().endswith(".ppm")


def _load_signal(path: str, mapping: str) -> tuple[QSignal2D, TransformConfig | None]:
    if _is_ppm(path):
        return qio.read_image_ppm(path, mapping), None
    sig, cfg = qio.read_qcsv(path)
    return sig, cfg


def _save_signal(path: str, sig: QSignal2D, cfg: TransformConfig, mapping: str):
    if _is_ppm(path):
        qio.write_image_ppm(path, sig, mapping)
    else:
        qio.write_qcsv(path, sig, cfg)


def _cmd_forward(args) -> int:
    if _is_ppm(args.outfile):
        raise UsageError("spectra are not range-limited; forward output must be qcsv")
    sig, header_cfg = _load_signal(args.infile, args.mapping)
    cfg = _resolve_config(args, header_cfg, sig.n1, sig.n2)
    out = forward_fast(sig, make_plan(cfg))
    qio.write_qcsv(args.outfile, out, cfg)
    return 0


def _cmd_inverse(args) -> int:
    if _is_ppm(args.infile):
        raise UsageError("inverse input must be a qcsv spectrum")
    sig, header_cfg = _load_signal(args.infile, args.mapping)
    cfg = _resolve_config(args, header_cfg, sig.n1, sig.n2)
    out = inverse_fast(sig, make_plan(cfg))
    _save_signal(args.outfile, out, cfg, args.mapping)
    return 0


def _check_conv_headers(cfg1: TransformConfig | None, cfg2: TransformConfig | None):
    """Two qcsv operands must agree on the header fields the convolution uses."""
    if cfg1 is None or cfg2 is None:
        return
    fields = (("dt", (cfg1.grid.dt1, cfg1.grid.dt2), (cfg2.grid.dt1, cfg2.grid.dt2)),
              ("params", (cfg1.p1, cfg1.p2), (cfg2.p1, cfg2.p2)))
    for name, first, second in fields:
        if first != second:
            raise UsageError(f"--in and --in2 headers differ in {name}; "
                             "pass --params, --preset or --dt to choose")


def _cmd_conv(args) -> int:
    if _is_ppm(args.outfile):
        raise UsageError("convolution output must be qcsv")
    f, header_cfg = _load_signal(args.infile, "pure")
    g, header_cfg2 = _load_signal(args.infile2, "pure")
    if f.shape != g.shape:
        raise UsageError(f"operand shapes differ: {f.shape} vs {g.shape}")
    if not (args.params or args.preset or args.dt):
        _check_conv_headers(header_cfg, header_cfg2)
    cfg = _resolve_config(args, header_cfg, f.n1, f.n2)
    out = qp_convolve(f, g, cfg)
    qio.write_qcsv(args.outfile, out, cfg)
    if args.check:
        print(conv_theorem_check(f, g, cfg, conv=out).to_text())
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_verify(args.seed)
    print(verify_mod.format_report(results))
    return 0 if verify_mod.all_passed(results) else 1


def _cmd_bench(args) -> int:
    print(format_table(run_bench(repeats=args.repeats)))
    return 0


def _attach_params_value(argv: list[str]) -> list[str]:
    """Rewrite '--params VALUE' or '--dt VALUE' as FLAG=VALUE when VALUE starts with '-'.

    argparse reads a separate token such as '-0.3,1,0,0,0:...' as an
    unknown flag, so a negative first value would otherwise be rejected.
    """
    argv = list(argv)
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] in ("--params", "--dt") and argv[i + 1].startswith("-"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_params_value(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # a result that overflows fails QSignal2D's finiteness check, which names it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (qio.QcsvError, qio.PpmError, ParameterError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
