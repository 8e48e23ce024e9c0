"""Exact verification toolkit for an unramified local integral identity.

The package checks, in exact arithmetic, every step of the computation
relating a two-variable local Rankin-Selberg integral on the product of
GL(2) and GSp(4) to the product of its two local L-factors: character
theory of the dual group, Pieri expansions, coefficient-count identities,
p-adic shell integrals, and the finite-field orbit structure of the
isotropic flags that drive the unfolding.
"""

from .characters import (
    LaurentPoly,
    Partition2,
    VirtualCharacter,
    char_A1,
    char_B2,
    decompose,
    dim_irrep,
    pieri_tensor,
    sym_powers_decompose,
    sym_power_spin_closed,
    tensor_decompose,
)
from .coeffs import m_brute, m_closed, n_brute, n_interval
from .padic import (
    TorusValuations,
    bottom_minor_norm,
    det_norms_closed,
    fprime_section,
    fpsi_brute,
    fpsi_closed,
    integral_max,
    integral_psi_max,
    torus_term,
)
from .series import (
    BiSeries,
    SatakePoint,
    lfactor_closed,
    lfactor_product_series,
    local_integral_series,
    mult_series,
    pieri_product_series,
    specialize,
)
from .suites import CheckConfig, CheckReport, emit_report, run_suite
from .symplectic import FlagState, gamma5_check, h_generators, stab5_check

__version__ = "0.1.0"
