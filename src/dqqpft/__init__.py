"""Two-sided discrete quaternion quadratic-phase Fourier transform.

A library and CLI for transforming quaternion-valued 2D grids with
per-axis quadratic-phase kernels (a, b, c, d, e), covering the plain
quaternion Fourier, fractional and linear-canonical families as
parameter choices.  Ships a definitional direct path, an FFT-based fast
path built on the orthogonal 2D planes split (home of the library's one
FFT entry point, on ``numpy.fft``), the matching quadratic-phase
convolution, qcsv/PPM I/O and a seeded verification harness.
"""

from .fast import (
    FastPlan,
    dqft2_via_fft,
    forward_fast,
    inverse_fast,
    make_plan,
    make_psi,
)
from .io import (
    MAPPINGS,
    PpmError,
    QcsvError,
    read_image_ppm,
    read_qcsv,
    write_image_ppm,
    write_qcsv,
)
from .params import (
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
from .qconv import ConvReport, conv_theorem_check, conv_theorem_rhs, qp_convolve
from .quaternion import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    embed_complex,
    qconj,
    qmul,
    qnorm_sq,
)
from .signal import QSignal2D, max_deviation, rel_deviation
from .transform import (
    LEFT_SIDED,
    RIGHT_SIDED,
    TWO_SIDED,
    TransformConfig,
    circular_shift,
    conjugate_transform_decomposition,
    dqft2,
    dqpft_1d,
    forward_direct,
    inverse_direct,
    left_kernel,
    make_config,
    modulated_signal,
    modulation_rhs,
    right_kernel,
    translation_rhs,
)
from .verify import PropertyResult, all_passed, format_report, run_verify

__version__ = "0.1.0"
