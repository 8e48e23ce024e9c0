"""Verification suites, their configuration, and report serialization.

Each suite is a generator of checks: ``_suite_<name>(cfg)`` yields one
``(check_id, params, body)`` entry per check and builds nothing between
its yields.  ``_checks(cfg)`` chains the configured suites, and ``_run``
is the one runner: it runs each body through ``_run_check`` and sorts the
reports by id.  ``run_suite`` runs every entry of ``_checks(cfg)`` with it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import time
from fractions import Fraction
from typing import NamedTuple

from . import characters, coeffs, padic, series, symplectic

__all__ = ["CheckConfig", "CheckReport", "SUITES", "run_suite", "emit_report"]

SUITES = ("characters", "pieri", "coeffs", "padic", "orbits", "chain", "all")

REPORT_VERSION = 1


class CheckConfig(NamedTuple):
    suite: str = "all"
    deg_u: int = 8
    deg_v: int = 8
    radius: int = 6
    primes: tuple = (2, 3, 5)
    satake_points: tuple | None = None
    seed: int = 0
    fmt: str = "text"
    no_timing: bool = False

    def validate(self) -> list[str]:
        """One message per malformed field, naming the field or its first bad entry.

        This is the only check of a config value, whether it comes from a
        flag, the config file or code; it never raises.
        """
        errors = []
        if self.suite not in SUITES:
            errors.append("unknown suite %r (choose from %s)" % (self.suite, ", ".join(SUITES)))
        for name in ("deg_u", "deg_v", "radius", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                errors.append("%s must be an integer, got %r" % (name, value))
            elif value < 0 and name != "seed":
                errors.append("%s must be nonnegative, got %d" % (name, value))
        for name in ("primes", "satake_points"):
            value = getattr(self, name)
            if value is None and name == "satake_points":
                continue  # the seeded points
            if not isinstance(value, (list, tuple)):
                errors.append("%s must be a list or tuple, got %r" % (name, value))
            elif not value:
                # a check over no primes or Satake points compares nothing
                errors.append("%s must not be empty" % name)
            else:
                bad = [self._entry_error(name, entry) for entry in value]
                errors.extend([err for err in bad if err][:1])
                if name == "primes" and not any(bad) and len(set(value)) < len(value):
                    errors.append("primes must be distinct, got %r more than once"
                                  % max(value, key=value.count))
        if self.fmt not in ("text", "json"):
            errors.append("format must be text or json, got %r" % (self.fmt,))
        if type(self.no_timing) is not bool:
            errors.append("no_timing must be true or false, got %r" % (self.no_timing,))
        return errors

    def _entry_error(self, name: str, entry) -> str | None:
        if name == "primes":
            if type(entry) is not int:
                return "prime %r is not an integer" % (entry,)
            if entry not in (2, 3, 5):
                return "primes must lie in {2, 3, 5}, got %r" % (entry,)
        else:
            try:
                coords = [_rational(c) for c in entry] if isinstance(entry, (tuple, list)) else ()
            except (ValueError, ZeroDivisionError):
                coords = ()
            if len(coords) != 3:
                return "satake point %r does not have three rational coordinates" % (entry,)
            if 0 in coords:
                return "satake coordinates must be nonzero"
        return None

    def resolved_satake(self) -> tuple:
        if self.satake_points is not None:
            return tuple(
                series.SatakePoint.make(*map(_rational, pt)) for pt in self.satake_points
            )
        rng = random.Random(self.seed)

        def coord():
            sign = rng.choice((1, -1))
            return Fraction(sign * rng.randint(1, 9), rng.randint(1, 9))

        return tuple(
            series.SatakePoint.make(coord(), coord(), coord()) for _ in range(5)
        )

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "deg_u": self.deg_u,
            "deg_v": self.deg_v,
            "radius": self.radius,
            "primes": list(self.primes),
            "satake_points": [
                [str(c) for c in pt] for pt in self.resolved_satake()
            ],
            "seed": self.seed,
            "format": self.fmt,
        }


def _rational(c) -> Fraction:
    """A Satake coordinate read through its text, so a float 0.1 is 1/10 and a bool is refused."""
    return Fraction(str(c))


class CheckReport(NamedTuple):
    check_id: str
    params: dict
    status: str
    lhs: str | None = None
    rhs: str | None = None
    elapsed_ms: int = 0

    def as_dict(self, no_timing: bool) -> dict:
        out = {"id": self.check_id, "params": self.params, "status": self.status}
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        if not no_timing:
            out["elapsed_ms"] = self.elapsed_ms
        return out


def _run_check(reports: list, check_id: str, params: dict, fn):
    """Run the body fn of one yielded check and append its CheckReport to reports.

    The body returns True, False or an (ok, lhs, rhs) triple.  A mismatch
    is a failure (``fail``).  An exception is an ``error``, with the
    exception type and message as ``lhs`` and its innermost frame
    (``file:line in function``) as ``rhs``; any other result, such as a
    forgotten ``return`` (None), is an ``error`` that shows the result.
    """
    start = time.monotonic()
    try:
        outcome = fn()
    except Exception as exc:  # a bug or a bad input, not a mathematical mismatch
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        code = tb.tb_frame.f_code
        status = "error"
        lhs = "%s: %s" % (type(exc).__name__, exc)
        rhs = "%s:%d in %s" % (os.path.basename(code.co_filename), tb.tb_lineno, code.co_name)
    else:
        if outcome is True or outcome is False:
            outcome = (outcome, None, None)
        if not (type(outcome) is tuple and len(outcome) == 3 and type(outcome[0]) is bool
                and all(side is None or type(side) is str for side in outcome[1:])):
            status, rhs = "error", None
            lhs = "malformed outcome %r: expected True, False or (ok, lhs, rhs)" % (outcome,)
        elif outcome[0]:
            status, lhs, rhs = "pass", None, None
        else:
            _, lhs, rhs = outcome
            status, lhs = "fail", "mismatch" if lhs is None else lhs
    elapsed = int((time.monotonic() - start) * 1000)
    reports.append(CheckReport(check_id, params, status, lhs, rhs, elapsed))


def _series_mismatch(lhs, rhs):
    diff = series.first_mismatch(lhs, rhs)
    if diff is None:
        return True
    key, a, b = diff
    return (False, "U^%d V^%d: %r" % (key[0], key[1], a), repr(b))


# ---------------------------------------------------------------------------
# Suite bodies.


def _suite_characters(cfg: CheckConfig):
    one = Fraction(1)
    m_max, ab_max = 12, 8

    def dims():
        for m in range(m_max + 1):
            if characters.char_A1(m).evaluate(one, one, one) != characters.dim_irrep(m, 0, 0):
                return (False, "A1[%d]" % m, None)
        for a in range(ab_max + 1):
            for b in range(ab_max + 1 - a):
                got = characters.char_B2(a, b).evaluate(one, one, one)
                if got != characters.dim_irrep(0, a, b):
                    return (False, "B2[%d,%d] trace %s" % (a, b, got), None)
        return True

    yield "characters/dim-vs-trace", {"m_max": m_max, "ab_max": ab_max}, dims

    def invariance():
        for a in range(ab_max + 1):
            for b in range(ab_max + 1 - a):
                if not characters.char_B2(a, b).is_weyl_invariant():
                    return (False, "B2[%d,%d]" % (a, b), None)
        return True

    yield "characters/weyl-invariance", {"ab_max": ab_max}, invariance

    samples, support_max = 40, 6

    def roundtrip():
        rng = random.Random(cfg.seed + 1)
        weights = [
            (m, a, b)
            for m in range(support_max + 1)
            for a in range(support_max + 1)
            for b in range(support_max + 1 - a)
        ]
        for _ in range(samples):
            support = rng.sample(weights, rng.randint(1, 5))
            vc = characters.VirtualCharacter(
                {w: rng.choice((-3, -2, -1, 1, 2, 3)) for w in support}
            )
            if characters.decompose(vc.expand()) != vc:
                return (False, repr(vc), None)
        return True

    params = {"samples": samples, "support_max": support_max}
    yield "characters/decompose-roundtrip", params, roundtrip

    l_max = 8

    def sym_closed():
        base = characters.VirtualCharacter.weight(1, 0, 1)
        for ell, rhs in enumerate(characters.sym_powers_decompose(base, l_max)):
            lhs = characters.sym_power_spin_closed(ell)
            if lhs != rhs:
                return (False, "l=%d: %r" % (ell, lhs), repr(rhs))
        return True

    yield "characters/sym-closed-vs-adams", {"l_max": l_max}, sym_closed

    tensor_samples = 25

    def tensor_dims():
        rng = random.Random(cfg.seed + 2)
        for _ in range(tensor_samples):
            w1 = (rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3))
            w2 = (rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3))
            prod = characters.tensor_decompose(
                characters.VirtualCharacter.weight(*w1),
                characters.VirtualCharacter.weight(*w2),
            )
            # the one place a tensor product is expanded, multiplied and peeled:
            # the SL2 and Spin5 products are peeled apart, and the product
            # character's decomposition is their Kronecker product
            sl2 = characters.decompose(characters.char_A1(w1[0]) * characters.char_A1(w2[0]))
            spin5 = characters.decompose(
                characters.char_B2(*w1[1:]) * characters.char_B2(*w2[1:])
            )
            oracle = characters.VirtualCharacter(
                {(m, a, b): c1 * c2 for (m, _, _), c1 in sl2.items()
                 for (_, a, b), c2 in spin5.items()}
            )
            if prod != oracle:
                return (False, "%r x %r: %r" % (w1, w2, prod), repr(oracle))
            if prod.dim() != characters.dim_irrep(*w1) * characters.dim_irrep(*w2):
                return (False, "%r x %r" % (w1, w2), None)
            if not prod.is_genuine():
                return (False, "negative multiplicity in %r x %r" % (w1, w2), None)
        return True

    yield "characters/tensor-dim-conservation", {"samples": tensor_samples}, tensor_dims


def _suite_pieri(cfg: CheckConfig):
    row1_max, k_max = 5, 6

    def rule():
        for r1 in range(row1_max + 1):
            for r2 in range(r1 + 1):
                for spin in (False, True):
                    lam = characters.Partition2(r1, r2, spin)
                    base = characters.VirtualCharacter.weight(*lam.to_weight())
                    for k in range(k_max + 1):
                        lhs = characters.pieri_tensor(lam, k)
                        rhs = characters.tensor_decompose(
                            base, characters.VirtualCharacter.weight(0, k, 0)
                        )
                        if lhs != rhs:
                            return (
                                False,
                                "lam=%r k=%d: %r" % (lam, k, lhs),
                                repr(rhs),
                            )
                        if not lhs.is_genuine():
                            return (False, "negative multiplicity at %r" % (lam,), None)
        return True

    yield "pieri/rule-vs-tensor-oracle", {"row1_max": row1_max, "k_max": k_max}, rule

    box = _small_box(cfg)

    def positivity():
        ps = series.pieri_product_series(*box)
        for _, vc in ps.items():
            if not vc.is_genuine():
                return (False, repr(vc), None)
        return True

    yield "pieri/series-positivity", {"box": list(box)}, positivity


# the degree bound of the small-box checks and of chain/lfactor-closed
_SMALL_DEG = 6


def _small_box(cfg: CheckConfig) -> tuple[int, int]:
    """The configured box capped at (_SMALL_DEG, _SMALL_DEG)."""
    return min(cfg.deg_u, _SMALL_DEG), min(cfg.deg_v, _SMALL_DEG)


def _suite_coeffs(cfg: CheckConfig):
    r = cfg.radius
    plane = list(itertools.product(range(r + 1), repeat=2))
    # the in-branch blocks, and the points on them all four checks compare, in grid order
    blocks = [
        (a, b, c) for a, b, c in itertools.product(range(r + 1), repeat=3)
        if coeffs.in_first_branch(a, c) or coeffs.in_second_branch(a, b, c)
    ]
    points = [(x, y, *abc) for x, y in plane for abc in blocks]

    def interval_eps(a, b, c):
        # the eps n_interval takes, at the point after its branch substitution
        dx, dy = coeffs.first_branch_shift(a, b, c)
        return lambda x, y: coeffs.interval_eps(x + dx, y + dy, b)

    @functools.cache
    def column(counter):
        # built by the first check that reads it; block i fills every len(blocks)-th entry
        values = [0] * len(points)
        for i, count in enumerate(counter(*abc) for abc in blocks):
            values[i::len(blocks)] = [count(x, y) for x, y in plane]
        return values

    pairs = [
        ("coeffs/m-closed-vs-brute", coeffs.m_closed, coeffs.m_brute),
        ("coeffs/n-interval-vs-brute", coeffs.n_interval, coeffs.n_brute),
        ("coeffs/m-vs-n", coeffs.m_closed, coeffs.n_interval),
        ("coeffs/parity-consistency", coeffs.delta_parity, interval_eps),
    ]
    for check_id, lhs, rhs in pairs:
        def compare(lhs=lhs, rhs=rhs):
            for pt, got, want in zip(points, column(lhs), column(rhs)):
                if got != want:
                    return (False, "(%d,%d,%d,%d,%d): %d" % (*pt, got), str(want))
            return True

        yield check_id, {"radius": r, "comparisons": len(points)}, compare


def _random_unit(rng: random.Random, p: int, v: int = 0) -> Fraction:
    """A random unit times p^v, made as one Fraction."""
    unit = rng.randrange(1, p) + p * rng.randrange(0, 30)
    return Fraction(unit * p**v) if v >= 0 else Fraction(unit, p**-v)


_DET_CONFIGS, _DET_CANCELLING, _DET_VAL_RANGE = 500, 8, (-3, 3)


def _det_configs(seed: int, p: int):
    """The samples of padic/det-closed-vs-minors at the prime p.

    First _DET_CONFIGS draws with y a unit times p^v(y).  Then each of
    _DET_CANCELLING draws gives two samples, with y = -xz and
    y = -xz + p^(v(x)+v(z)+1) in place of the drawn y: there
    det_norms_closed drops, or needs, its v(y + xz) candidate.
    Yields (tv, vals, (x, y, z), t, g): the torus valuations, the
    valuations of x, y and z, the three values, t = torus_element(alpha,
    beta, gamma) and g = u_element(x, y, z) t.  t is diagonal, so g is u
    with column j scaled by t's j-th diagonal entry.
    """
    v_lo, v_hi = _DET_VAL_RANGE
    rng = random.Random(seed * 1000 + p)
    for k in range(_DET_CONFIGS + _DET_CANCELLING):
        a, b, c = (rng.randrange(0, 4) for _ in range(3))
        vals = tuple(rng.randrange(v_lo, v_hi + 1) for _ in range(3))
        x, y, z = (_random_unit(rng, p, v) for v in vals)
        t = padic.torus_element(*(_random_unit(rng, p, e) for e in (a, b, c)))
        ys = (y,)
        if k >= _DET_CONFIGS:
            vx, vz = vals[0], vals[2]
            vals, ys = (vx, vx + vz, vz), (-x * z, -x * z + Fraction(p) ** (vx + vz + 1))
        T, dt = t
        for y in ys:
            U, du = padic.u_element(x, y, z)
            g = padic.QMatrix.over([[v * T[j][j] for j, v in enumerate(row)] for row in U], du * dt)
            yield padic.TorusValuations(a, b, c), vals, (x, y, z), t, g


def _suite_padic(cfg: CheckConfig):
    # each kernel check is an identity of Laurent polynomials in (1/p, p^-u)
    val_lo, val_hi = -2, 4
    kernel_params = {"vals": [val_lo, val_hi], "scope": "every p, every u"}
    kernels = [
        ("padic/max-kernel-integral", padic.integral_max, padic.integral_max_brute),
        ("padic/psi-kernel-integral", padic.integral_psi_max, padic.integral_psi_max_brute),
    ]
    for check_id, closed_fn, brute_fn in kernels:
        def kernel(closed_fn=closed_fn, brute_fn=brute_fn):
            for v in range(val_lo, val_hi + 1):
                closed, brute = closed_fn(v), brute_fn(v)
                if closed != brute:
                    return (False, "v=%d: %r" % (v, closed), repr(brute))
            return True

        yield check_id, kernel_params, kernel

    def det_sweep():
        for p in cfg.primes:
            for tv, vals, (x, y, z), _, g in _det_configs(cfg.seed, p):
                minors = padic.bottom_minor_norm(g, p)
                closed = padic.det_norms_closed(tv, x, y, z, p)
                if minors != closed:
                    return (
                        False,
                        "p=%d abc=(%d,%d,%d) v=(%d,%d,%d): %r" % (p, *tv, *vals, minors),
                        repr(closed),
                    )
        return True

    params = {
        "primes": list(cfg.primes), "configs": _DET_CONFIGS,
        "cancellations": 2 * _DET_CANCELLING, "val_range": list(_DET_VAL_RANGE),
    }
    yield "padic/det-closed-vs-minors", params, det_sweep

    section_primes, levi_samples, k_samples = (2, 3), 20, 10

    def section_levi():
        g5 = padic.gamma5_matrix()
        g5_inv = padic.mat_inv(g5)
        for p in section_primes:
            rng = random.Random(cfg.seed * 77 + p)
            for _ in range(levi_samples):
                # Levi data: m1 integral invertible, m2 and mu powers of p
                # times units
                while True:
                    m1 = [[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)]
                    det = m1[0][0] * m1[1][1] - m1[0][1] * m1[1][0]
                    if det:
                        break
                m2 = _random_unit(rng, p) * Fraction(p) ** rng.randrange(0, 3)
                mu = _random_unit(rng, p) * Fraction(p) ** rng.randrange(0, 3)
                g = _parabolic_levi(m1, m2, mu)
                conj = padic.mat_mul(padic.mat_mul(g5_inv, g), g5)
                levi = "p=%d m1=%r m2=%s mu=%s" % (p, m1, m2, mu)
                try:
                    v3, v2, vmu = padic.fprime_section(conj, p)
                except ValueError as exc:  # g is no similitude, or its minors vanish
                    return (False, "%s: %s" % (levi, exc), "similitude %s" % mu)
                # p-exponents in f' = |det3|^(-2s)|det2|^(2s-w)|mu|^(s+w)
                # versus the parabolic character of the Levi data
                es = 2 * v3 - 2 * v2 - vmu
                ew = v2 - vmu
                vdet = padic.valuation(Fraction(det), p)
                vm2 = padic.valuation(m2, p)
                vmu_true = padic.valuation(mu, p)
                want_s = -2 * vm2 + vmu_true
                want_w = -vdet + vmu_true
                if (es, ew) != (want_s, want_w):
                    return (
                        False,
                        "%s -> (%d,%d)" % (levi, es, ew),
                        "(%d,%d)" % (want_s, want_w),
                    )
        return True

    params = {"primes": list(section_primes), "samples": levi_samples}
    yield "padic/section-levi", params, section_levi

    def section_k_invariance():
        for p in section_primes:
            rng = random.Random(cfg.seed * 7070 + p)
            base = padic.mat_mul(
                padic.u_element(Fraction(1, p), p, Fraction(3, p)),
                padic.torus_element(p, Fraction(p**2), p),
            )
            ref = padic.fprime_section(base, p)
            for _ in range(k_samples):
                k = _random_integral_k(rng, p)
                got = padic.fprime_section(padic.mat_mul(base, k), p)
                if got != ref:
                    return (False, "p=%d: %r" % (p, got), repr(ref))
        return True

    params = {"primes": list(section_primes), "samples": k_samples}
    yield "padic/section-k-invariance", params, section_k_invariance

    abc_max = 2

    def fpsi():
        # an identity of Laurent polynomials in (1/p, p^-s, p^-w)
        for a, b, c in itertools.product(range(abc_max + 1), repeat=3):
            tv = padic.TorusValuations(a, b, c)
            brute, closed = padic.fpsi_brute(tv), padic.fpsi_closed_numerator(tv)
            if brute != closed:
                return (False, "abc=(%d,%d,%d): %r" % (a, b, c, brute), repr(closed))
        return True

    params = {"abc_max": abc_max, "scope": "every p, every (s, w)"}
    yield "padic/fpsi-closed-vs-brute", params, fpsi

    box = _small_box(cfg)

    def torus_reconstruction():
        return _series_mismatch(padic.torus_term_sum(*box), series.local_integral_series(*box))

    yield "padic/torus-reconstruction", {"box": list(box)}, torus_reconstruction


def _parabolic_levi(m1, m2, mu):
    """Block-diagonal parabolic element diag(m1, m2, mu/m2, mu m1*)."""
    m1 = [[Fraction(v) for v in row] for row in m1]
    m2, mu = Fraction(m2), Fraction(mu)
    det = m1[0][0] * m1[1][1] - m1[0][1] * m1[1][0]
    # m1* = S m1^{-T} S for the antidiagonal pairing of (e1,e2) with (f2,f1)
    inv_t = [
        [m1[1][1] / det, -m1[1][0] / det],
        [-m1[0][1] / det, m1[0][0] / det],
    ]
    star = [[inv_t[1][1], inv_t[1][0]], [inv_t[0][1], inv_t[0][0]]]
    rows = [[0] * 6 for _ in range(6)]
    rows[0][0], rows[0][1] = m1[0][0], m1[0][1]
    rows[1][0], rows[1][1] = m1[1][0], m1[1][1]
    rows[2][2] = m2
    rows[3][3] = mu / m2
    rows[4][4], rows[4][5] = mu * star[0][0], mu * star[0][1]
    rows[5][4], rows[5][5] = mu * star[1][0], mu * star[1][1]
    return padic.QMatrix.of(rows)


def _random_integral_k(rng: random.Random, p: int):
    """Random element of the integral points with unit similitude."""
    factors = []
    for _ in range(4):
        kind = rng.randrange(3)
        if kind == 0:
            factors.append(
                padic.u_element(rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4))
            )
        elif kind == 1:
            factors.append(padic.gamma5_matrix())
        else:
            units = [rng.randrange(1, p) + p * rng.randrange(0, 3) for _ in range(3)]
            # unit-diagonal torus stays integral with unit similitude
            factors.append(padic.torus_element(*units))
    out = factors[0]
    for f in factors[1:]:
        out = padic.mat_mul(out, f)
    return out


def _suite_orbits(cfg: CheckConfig):
    yield "orbits/gamma5", {}, symplectic.gamma5_check

    expected_totals = {2: (135, 945), 3: (1120, 14560)}
    # orbit i has |H| / |Stab_i| flags, from the stated stabilizer orders of the representatives
    expected_sizes = {
        q: [symplectic.h_group_order(q) // s for s in (
            q**5 * (q - 1) ** 4 * (q + 1), q**5 * (q - 1) ** 4, q**5 * (q - 1) ** 3,
            q**4 * (q - 1) ** 3, q**2 * (q - 1) ** 3 * (q + 1))]
        for q in (2, 3)
    }
    for q in (2, 3):
        def flag_count(q=q):
            got = len(symplectic.flag_space(q).flags)
            formula = symplectic.flag_counts(q)
            want = expected_totals[q]
            if got != want[1] or formula != want:
                return (False, "count %d formula %r" % (got, formula), repr(want))
            return True

        yield "orbits/flag-count-q%d" % q, {"q": q}, flag_count

        def split(q=q):
            space = symplectic.flag_space(q)
            sizes, orbit_of = space.orbit_split()
            sizes = list(sizes)  # the failure text shows the list repr
            if sizes != expected_sizes[q]:
                return (False, "sizes %r" % sizes, repr(expected_sizes[q]))
            alt = orbit_of[space.flag_index(symplectic.alt_fifth_flag(q))]
            if alt != 5:
                return (False, "variant flag in orbit %d" % alt, "5")
            return True

        yield "orbits/orbit-split-q%d" % q, {"q": q, "orbits": 5, "sizes": expected_sizes[q]}, split
        yield "orbits/stab5-q%d" % q, {"q": q}, functools.partial(symplectic.stab5_check, q)

    def h_order():
        space, want = symplectic.flag_space(2), symplectic.h_group_order(2)
        closure = symplectic.group_closure(space.identity, space.vector_tables, want)
        if len(closure) != want:
            return (False, str(len(closure)), str(want))
        return True

    yield "orbits/h-order-q2", {"q": 2}, h_order

    yield "orbits/orbit-predicates-q2", {"q": 2}, functools.partial(symplectic.orbit_predicates, 2)


def _suite_chain(cfg: CheckConfig):
    du, dv = cfg.deg_u, cfg.deg_v
    builders = {
        "local": lambda: series.local_integral_series(du, dv),
        "mult_m": lambda: series.mult_series(du, dv, coeffs.m_closed),
        "mult_n": lambda: series.mult_series(du, dv, coeffs.n_interval),
        "pieri": lambda: series.pieri_product_series(du, dv),
        "lfactor": lambda: series.lfactor_product_series(du, dv),
    }

    @functools.cache
    def get(name):
        # each series is built by the first check that reads it
        return builders[name]()

    links = [
        ("chain/local-vs-mult-m", "local", "mult_m"),
        ("chain/mult-m-vs-mult-n", "mult_m", "mult_n"),
        ("chain/mult-n-vs-pieri", "mult_n", "pieri"),
        ("chain/pieri-vs-lfactor", "pieri", "lfactor"),
    ]
    box = {"box": [du, dv]}
    for check_id, a, b in links:
        yield check_id, box, lambda a=a, b=b: _series_mismatch(get(a), get(b))

    def normalization():
        lhs = get("lfactor").times_geometric(2, 0).times_geometric(0, 2)
        su = series.sym_side_series("std", du)
        sv = series.sym_side_series("spin-product", dv)
        rhs = series.series_from_univariate(su, "u", du, dv) * series.series_from_univariate(
            sv, "v", du, dv
        )
        return _series_mismatch(lhs, rhs)

    yield "chain/normalization", box, normalization

    points = cfg.resolved_satake()

    @functools.cache
    def specialized(name, pt):
        # specialize(series, pt), shared by the checks below
        return series.specialize(get(name), pt)

    for n, pt in enumerate(points):
        def spec_eq(pt=pt):
            return _series_mismatch(specialized("local", pt), specialized("lfactor", pt))

        params = {"point": [str(c) for c in pt], "box": [du, dv]}
        yield "chain/specialization-pt%d" % n, params, spec_eq

    def vs_closed(name, box):
        # adding a zero series truncates to the box, and specialization and
        # truncation commute with the two zeta normalizations 1/(1-U^2) and 1/(1-V^2)
        zero = series.BiSeries.zero(*box)
        return _vs_closed_product(
            points,
            lambda pt: (specialized(name, pt) + zero).times_geometric(2, 0).times_geometric(0, 2),
        )

    yield ("chain/local-vs-closed", {"box": [du, dv], "points": len(points)},
           functools.partial(vs_closed, "local", (du, dv)))
    yield ("chain/lfactor-closed", {"deg": _SMALL_DEG, "points": len(points)},
           functools.partial(vs_closed, "lfactor", _small_box(cfg)))


def _vs_closed_product(points, specialized):
    """Compare specialized(pt) with the closed std5 x stdxspin Euler product.

    At every point the closed side is lfactor_closed(pt, "std5")[i] *
    lfactor_closed(pt, "stdxspin")[j] at every U^i V^j of the box of
    specialized(pt); a failure names the point and the first differing
    coefficient.
    """
    for pt in points:
        lhs = specialized(pt)
        du, dv = lhs.deg_u, lhs.deg_v
        a = series.lfactor_closed(pt, "std5", du)
        b = series.lfactor_closed(pt, "stdxspin", dv)
        closed = series.BiSeries(
            du, dv, {(i, j): a[i] * b[j] for i in range(du + 1) for j in range(dv + 1)}
        )
        outcome = _series_mismatch(lhs, closed)
        if outcome is not True:
            _, got, want = outcome
            return (False, "pt=(%s) %s" % (", ".join(map(str, pt)), got), want)
    return True


_SUITE_BODIES = {
    "characters": _suite_characters,
    "pieri": _suite_pieri,
    "coeffs": _suite_coeffs,
    "padic": _suite_padic,
    "orbits": _suite_orbits,
    "chain": _suite_chain,
}


def _checks(cfg: CheckConfig):
    """The (check_id, params, body) entries of the configured suites, in SUITES order.

    Raises ValueError for an invalid config.  The sequence is lazy and
    yielding an entry runs no body: every shared artifact is built by the
    first body that reads it, so a check that is never run costs nothing.
    """
    errors = cfg.validate()
    if errors:
        raise ValueError("; ".join(errors))
    names = [s for s in SUITES if s != "all"] if cfg.suite == "all" else [cfg.suite]
    return itertools.chain.from_iterable(_SUITE_BODIES[name](cfg) for name in names)


def _run(checks) -> list[CheckReport]:
    """The one runner: each (check_id, params, body) entry goes through the
    module-global ``_run_check``, which can be replaced to filter or record
    the checks; returns the reports sorted by id."""
    reports: list[CheckReport] = []
    for check in checks:
        _run_check(reports, *check)
    return sorted(reports, key=lambda r: r.check_id)


def run_suite(cfg: CheckConfig) -> list[CheckReport]:
    """Run every check of the configured suite, by id; deterministic for a fixed config."""
    return _run(_checks(cfg))


def emit_report(reports: list[CheckReport], cfg: CheckConfig) -> str:
    no_timing = cfg.no_timing
    if cfg.fmt == "json":
        doc = {
            "version": REPORT_VERSION,
            "config": cfg.as_dict(),
            "checks": [r.as_dict(no_timing) for r in reports],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    width = max([len(r.check_id) for r in reports] + [24])
    lines = ["%-*s  %-6s%s" % (width, "check", "status", "" if no_timing else "  elapsed_ms")]
    lines.append("-" * len(lines[0]))
    for r in reports:
        timing = "" if no_timing else "  %10d" % r.elapsed_ms
        lines.append("%-*s  %-6s%s" % (width, r.check_id, r.status, timing))
        if r.status in ("fail", "error"):
            if r.lhs is not None:
                lines.append("    lhs: %s" % r.lhs)
            if r.rhs is not None:
                lines.append("    rhs: %s" % r.rhs)
    passed = sum(1 for r in reports if r.status == "pass")
    lines.append("%d/%d checks passed" % (passed, len(reports)))
    return "\n".join(lines) + "\n"
