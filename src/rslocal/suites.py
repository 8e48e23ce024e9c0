"""Verification suites, their configuration, and report serialization.

Each suite is a generator of checks: ``_suite_<name>(cfg)`` yields one
``(check_id, params, body)`` entry per check and builds nothing between
its yields.  ``_checks(cfg)`` chains the configured suites, and ``_run``
is the one runner: it runs each body through ``_run_check`` and sorts the
reports by id.  ``run_suite`` runs every entry of ``_checks(cfg)`` with it.
Every ``fail`` written here comes from ``_first_mismatch``: a body yields
its ``(args, lhs, rhs)`` cases in order, and the first case whose sides
differ is the failure.  Only the ``symplectic`` certificates that the
``orbits`` suite runs as they are word their own failures.
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
        flag or from code; it never raises.
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


def _first_mismatch(where, cases):
    """True, or the failure triple of the first (args, lhs, rhs) case whose sides differ.

    Its lhs is ``where % args`` and the repr of the case's lhs, its rhs the
    repr of the case's rhs.  cases is read lazily, never past that case,
    and no other case's label is formatted.
    """
    for args, lhs, rhs in cases:
        if lhs != rhs:
            return (False, "%s: %r" % (where % args, lhs), repr(rhs))
    return True


def _series_cases(lhs, rhs, *prefix):
    """Each position (i, j) of two unequal series' supports, in order, as a case
    with args (*prefix, i, j); none when the series are equal."""
    if lhs != rhs:
        for i, j in sorted({key for side in (lhs, rhs) for key, _ in side.items()}):
            yield (*prefix, i, j), lhs.get(i, j), rhs.get(i, j)


def _negative_part(vc):
    """The terms of a virtual character with negative multiplicity; empty when it is genuine."""
    return characters.VirtualCharacter({w: c for w, c in vc.items() if c < 0})


def _series_mismatch(lhs, rhs):
    return _first_mismatch("U^%d V^%d", _series_cases(lhs, rhs))


# ---------------------------------------------------------------------------
# Suite bodies.


def _suite_characters(cfg: CheckConfig):
    one = Fraction(1)
    m_max, ab_max = 12, 8

    def dims():
        # a trace is labelled by its weight, written A1[m]B2[a,b] as VirtualCharacter writes it
        traces = itertools.chain(
            (((m, 0, 0), characters.char_A1(m)) for m in range(m_max + 1)),
            (((0, a, b), characters.char_B2(a, b))
             for a in range(ab_max + 1) for b in range(ab_max + 1 - a)))
        return _first_mismatch("A1[%d]B2[%d,%d]", (
            (w, poly.evaluate(one, one, one), characters.dim_irrep(*w)) for w, poly in traces))

    yield "characters/dim-vs-trace", {"m_max": m_max, "ab_max": ab_max}, dims

    def invariance():
        return _first_mismatch("B2[%d,%d]", (
            ((a, b), characters.char_B2(a, b).is_weyl_invariant(), True)
            for a in range(ab_max + 1) for b in range(ab_max + 1 - a)))

    yield "characters/weyl-invariance", {"ab_max": ab_max}, invariance

    samples, support_max = 40, 6

    def roundtrip():
        rng = random.Random(cfg.seed + 1)
        weights = [(m, a, b) for m in range(support_max + 1) for a in range(support_max + 1)
                   for b in range(support_max + 1 - a)]

        def cases():
            for n in range(samples):
                support = rng.sample(weights, rng.randint(1, 5))
                vc = characters.VirtualCharacter(
                    {w: rng.choice((-3, -2, -1, 1, 2, 3)) for w in support})
                yield (n,), characters.decompose(vc.expand()), vc

        return _first_mismatch("sample %d", cases())

    params = {"samples": samples, "support_max": support_max}
    yield "characters/decompose-roundtrip", params, roundtrip

    l_max = 8

    def sym_closed():
        base = characters.VirtualCharacter.weight(1, 0, 1)
        return _first_mismatch("l=%d", (
            ((ell,), characters.sym_power_spin_closed(ell), rhs)
            for ell, rhs in enumerate(characters.sym_powers_decompose(base, l_max))))

    yield "characters/sym-closed-vs-adams", {"l_max": l_max}, sym_closed

    tensor_samples = 25

    def tensor_dims():
        rng, weight = random.Random(cfg.seed + 2), characters.VirtualCharacter.weight

        def cases():
            for _ in range(tensor_samples):
                w1 = (rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3))
                w2 = (rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3))
                prod = characters.tensor_decompose(weight(*w1), weight(*w2))
                # the one place a tensor product is expanded, multiplied and peeled:
                # the SL2 and Spin5 products are peeled apart, and the product
                # character's decomposition is their Kronecker product
                sl2 = characters.decompose(characters.char_A1(w1[0]) * characters.char_A1(w2[0]))
                spin5 = characters.decompose(
                    characters.char_B2(*w1[1:]) * characters.char_B2(*w2[1:]))
                oracle = characters.VirtualCharacter(
                    {(m, a, b): c1 * c2 for (m, _, _), c1 in sl2.items()
                     for (_, a, b), c2 in spin5.items()})
                yield (w1, w2, ""), prod, oracle
                yield ((w1, w2, " dim"), prod.dim(),
                       characters.dim_irrep(*w1) * characters.dim_irrep(*w2))
                yield ((w1, w2, " negative part"), _negative_part(prod),
                       characters.VirtualCharacter())

        return _first_mismatch("%r x %r%s", cases())

    yield "characters/tensor-dim-conservation", {"samples": tensor_samples}, tensor_dims


def _suite_pieri(cfg: CheckConfig):
    row1_max, k_max = 5, 6

    def rule():
        def cases():
            for lam in (characters.Partition2(r1, r2, spin) for r1 in range(row1_max + 1)
                        for r2 in range(r1 + 1) for spin in (False, True)):
                base = characters.VirtualCharacter.weight(*lam.to_weight())
                for k in range(k_max + 1):
                    lhs = characters.pieri_tensor(lam, k)
                    yield (lam, k, ""), lhs, characters.tensor_decompose(
                        base, characters.VirtualCharacter.weight(0, k, 0))
                    yield ((lam, k, " negative part"), _negative_part(lhs),
                           characters.VirtualCharacter())

        return _first_mismatch("lam=%r k=%d%s", cases())

    yield "pieri/rule-vs-tensor-oracle", {"row1_max": row1_max, "k_max": k_max}, rule

    box = _small_box(cfg)

    def positivity():
        return _first_mismatch("U^%d V^%d", (
            (key, _negative_part(vc), characters.VirtualCharacter())
            for key, vc in series.pieri_product_series(*box).items()))

    yield "pieri/series-positivity", {"box": list(box)}, positivity


# the degree bound of the small-box checks and of chain/lfactor-closed
_SMALL_DEG = 6


def _small_box(cfg: CheckConfig) -> tuple[int, int]:
    """The configured box capped at (_SMALL_DEG, _SMALL_DEG)."""
    return min(cfg.deg_u, _SMALL_DEG), min(cfg.deg_v, _SMALL_DEG)


def _suite_coeffs(cfg: CheckConfig):
    r = cfg.radius
    plane = list(itertools.product(range(r + 1), repeat=2))
    # the in-branch blocks, on whose grid points all four checks compare
    blocks = [
        (a, b, c) for a, b, c in itertools.product(range(r + 1), repeat=3)
        if coeffs.in_first_branch(a, c) or coeffs.in_second_branch(a, b, c)
    ]

    def interval_eps(a, b, c):
        # the eps n_interval takes, at the point after its branch substitution
        dx, dy = coeffs.first_branch_shift(a, b, c)
        return lambda x, y: coeffs.interval_eps(x + dx, y + dy, b)

    @functools.cache
    def column(counter):
        # built by the first check that reads it; block i fills every len(blocks)-th entry
        values = [0] * (len(plane) * len(blocks))
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
            got, want = column(lhs), column(rhs)
            return got == want or _first_mismatch("(%d,%d,%d,%d,%d)", (
                ((*plane[j // len(blocks)], *blocks[j % len(blocks)]), u, v)
                for j, (u, v) in enumerate(zip(got, want))))

        yield check_id, {"radius": r, "comparisons": len(plane) * len(blocks)}, compare


def _random_unit(rng: random.Random, p: int) -> int:
    """A random p-adic unit: an integer in [1, 30p) prime to p."""
    return rng.randrange(1, p) + p * rng.randrange(0, 30)


_DET_CONFIGS, _DET_CANCELLING, _DET_VAL_RANGE = 500, 8, (-3, 3)


def _det_configs(seed: int, p: int):
    """The samples of padic/det-closed-vs-minors at the prime p.

    First _DET_CONFIGS draws with y a unit times p^v(y).  Then each of
    _DET_CANCELLING draws gives two samples, with y = -xz and
    y = -xz + p^(v(x)+v(z)+1) in place of the drawn y: there
    det_norms_closed drops, or needs, its v(y + xz) candidate.
    Yields (tv, vals, (x, y, z), units, g): the torus valuations, the valuations
    and values of x, y and z, the ints (alpha, beta, gamma) = units times p^tv, and
    g = u(x, y, z) t = padic.ut_element(nx, ny, nz, d, *units), d = p^m clearing
    x, y, z to nx, ny, nz.  The sweep's minors read rows 0 and 2-5 of g only:
    row 1 of ut_element is read by padic/section-k-invariance's similitude, and
    test_det_configs_are_the_column_scaled_products ties all of g to u t.
    """
    v_lo, v_hi = _DET_VAL_RANGE
    rng = random.Random(seed * 1000 + p)
    draw, unit = rng.randrange, functools.partial(_random_unit, rng, p)
    for k in range(_DET_CONFIGS + _DET_CANCELLING):
        tv = padic.TorusValuations(draw(0, 4), draw(0, 4), draw(0, 4))
        vx, vy, vz = draw(v_lo, v_hi + 1), draw(v_lo, v_hi + 1), draw(v_lo, v_hi + 1)
        ux, uy, uz = unit(), unit(), unit()
        units = unit() * p ** tv[0], unit() * p ** tv[1], unit() * p ** tv[2]
        vals = (vx, vy if k < _DET_CONFIGS else vx + vz, vz)
        m = max(0, -min(vals))
        d, nx, ny, nz = p**m, ux * p ** (vx + m), uy * p ** (vals[1] + m), uz * p ** (vz + m)
        nys = (ny,) if k < _DET_CONFIGS else (-nx * nz // d, p ** (vals[1] + m + 1) - nx * nz // d)
        for ny in nys:
            g = padic.ut_element(nx, ny, nz, d, *units)
            yield tv, vals, (Fraction(nx, d), Fraction(ny, d), Fraction(nz, d)), units, g


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
            vals = range(val_lo, val_hi + 1)
            return _first_mismatch("v=%d", (((v,), closed_fn(v), brute_fn(v)) for v in vals))

        yield check_id, kernel_params, kernel

    def det_sweep():
        return _first_mismatch("p=%d abc=(%d,%d,%d) v=(%d,%d,%d)", (
            ((p, *tv, *vals), padic.bottom_minor_norm(g, p), padic.det_norms_closed(tv, x, y, z, p))
            for p in cfg.primes for tv, vals, (x, y, z), _, g in _det_configs(cfg.seed, p)))

    params = {
        "primes": list(cfg.primes), "configs": _DET_CONFIGS,
        "cancellations": 2 * _DET_CANCELLING, "val_range": list(_DET_VAL_RANGE),
    }
    yield "padic/det-closed-vs-minors", params, det_sweep

    section_primes, levi_samples, k_samples = (2, 3), 20, 10

    def section_levi():
        g5 = padic.gamma5_matrix()
        g5_inv = padic.mat_inv(g5)

        def cases():
            for p in section_primes:
                rng = random.Random(cfg.seed * 77 + p)
                for _ in range(levi_samples):
                    # Levi data: m1 integral invertible, m2 and mu powers of p times units
                    while True:
                        m1 = [[rng.randrange(-6, 7) for _ in range(2)] for _ in range(2)]
                        det = m1[0][0] * m1[1][1] - m1[0][1] * m1[1][0]
                        if det:
                            break
                    m2 = _random_unit(rng, p) * p ** rng.randrange(0, 3)
                    mu = _random_unit(rng, p) * p ** rng.randrange(0, 3)
                    conj = padic.mat_mul(padic.mat_mul(g5_inv, padic.levi_element(m1, m2, mu)), g5)
                    # the parabolic character of the Levi data
                    vmu = padic.valuation(mu, p)
                    want = (-2 * padic.valuation(m2, p) + vmu, -padic.valuation(det, p) + vmu)
                    try:
                        v3, v2, v_sim = padic.fprime_section(conj, p)
                        # p-exponents in f' = |det3|^(-2s)|det2|^(2s-w)|mu|^(s+w)
                        got = (2 * v3 - 2 * v2 - v_sim, v2 - v_sim)
                    except ValueError as exc:  # g is no similitude, or its minors vanish
                        got = str(exc)
                    yield (p, m1, m2, mu), got, want

        return _first_mismatch("p=%d m1=%r m2=%d mu=%d", cases())

    params = {"primes": list(section_primes), "samples": levi_samples}
    yield "padic/section-levi", params, section_levi

    def section_k_invariance():
        def cases():
            for p in section_primes:
                rng = random.Random(cfg.seed * 7070 + p)
                base = padic.ut_element(1, p * p, 3, p, p, p * p, p)  # u(1/p, p, 3/p) t(p, p^2, p)
                ref = padic.fprime_section(base, p)
                for _ in range(k_samples):
                    k = _random_integral_k(rng, p)
                    yield (p,), padic.fprime_section(padic.mat_mul(base, k), p), ref

        return _first_mismatch("p=%d", cases())

    params = {"primes": list(section_primes), "samples": k_samples}
    yield "padic/section-k-invariance", params, section_k_invariance

    abc_max = 2

    def fpsi():
        # an identity of Laurent polynomials in (1/p, p^-s, p^-w)
        tvs = map(padic.TorusValuations._make, itertools.product(range(abc_max + 1), repeat=3))
        return _first_mismatch("abc=(%d,%d,%d)", (
            (tv, padic.fpsi_brute(tv), padic.fpsi_closed_numerator(tv)) for tv in tvs))

    params = {"abc_max": abc_max, "scope": "every p, every (s, w)"}
    yield "padic/fpsi-closed-vs-brute", params, fpsi

    box = _small_box(cfg)

    def torus_reconstruction():
        return _series_mismatch(padic.torus_term_sum(*box), series.local_integral_series(*box))

    yield "padic/torus-reconstruction", {"box": list(box)}, torus_reconstruction


def _random_integral_k(rng: random.Random, p: int):
    """Random element of the integral points with unit similitude."""
    factors = []
    for _ in range(4):
        kind = rng.randrange(3)
        if kind == 0:
            xyz = rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(-3, 4)
            factors.append(padic.ut_element(*xyz, 1, 1, 1, 1))
        elif kind == 1:
            factors.append(padic.gamma5_matrix())
        else:
            units = [rng.randrange(1, p) + p * rng.randrange(0, 3) for _ in range(3)]
            # unit-diagonal torus stays integral with unit similitude
            factors.append(padic.ut_element(0, 0, 0, 1, *units))
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
            return _first_mismatch("q=%d %s", [
                ((q, "count"), len(symplectic.flag_space(q).flags), expected_totals[q][1]),
                ((q, "formula"), symplectic.flag_counts(q), expected_totals[q])])

        yield "orbits/flag-count-q%d" % q, {"q": q}, flag_count

        def split(q=q):
            space = symplectic.flag_space(q)
            sizes, orbit_of = space.orbit_split()

            def cases():
                yield (q, "sizes"), list(sizes), expected_sizes[q]  # compared and shown as a list
                alt = space.flag_index(symplectic.alt_fifth_flag(q))
                yield (q, "orbit of the variant flag"), orbit_of[alt], 5

            return _first_mismatch("q=%d %s", cases())

        yield "orbits/orbit-split-q%d" % q, {"q": q, "orbits": 5, "sizes": expected_sizes[q]}, split
        yield "orbits/stab5-q%d" % q, {"q": q}, functools.partial(symplectic.stab5_check, q)

    def h_order():
        space, want = symplectic.flag_space(2), symplectic.h_group_order(2)
        closure = symplectic.group_closure(space.identity, space.vector_tables, want)
        return _first_mismatch("q=%d closure order", [((2,), len(closure), want)])

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
        # Sym^l of the 5-dimensional B2[1,0] at U^l, of the 8-dimensional A1[1]B2[0,1] at V^l
        weight = characters.VirtualCharacter.weight
        su = characters.sym_powers_decompose(weight(0, 1, 0), du)
        sv = characters.sym_powers_decompose(weight(1, 0, 1), dv)
        rhs = (series.BiSeries(du, dv, {(ell, 0): c for ell, c in enumerate(su)})
               * series.BiSeries(du, dv, {(0, ell): c for ell, c in enumerate(sv)}))
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
        # adding a zero series truncates to the box; the two zeta normalizations
        # 1/(1-U^2) and 1/(1-V^2) move to the closed side as (1-U^2)(1-V^2)
        zero = series.BiSeries(*box)
        return _vs_closed_product(points, lambda pt: specialized(name, pt) + zero)

    yield ("chain/local-vs-closed", {"box": [du, dv], "points": len(points)},
           functools.partial(vs_closed, "local", (du, dv)))
    yield ("chain/lfactor-closed", {"box": list(_small_box(cfg)), "points": len(points)},
           functools.partial(vs_closed, "lfactor", _small_box(cfg)))


def _vs_closed_product(points, specialized):
    """Compare specialized(pt) with the closed std5 x stdxspin Euler product.

    The zeta normalizations 1/(1-U^2) and 1/(1-V^2) are not applied to
    specialized(pt); the closed side is multiplied by (1-U^2)(1-V^2)
    instead.  With a and b the coefficients of lfactor_closed(pt, "std5")
    and lfactor_closed(pt, "stdxspin"), it is a'[i] b'[j] at every U^i V^j
    of the box of specialized(pt), where a'[i] = a[i] - a[i-2] and
    b'[j] = b[j] - b[j-2].  The identity is the same, and so is the first
    differing position, since the normalization is unitriangular in
    _series_cases's order.  Each point yields its positions to
    _first_mismatch, which names the point and the unnormalized values.
    """
    def cases():
        for pt in points:
            lhs = specialized(pt)
            du, dv = lhs.deg_u, lhs.deg_v
            a = series.lfactor_closed(pt, "std5", du)
            b = series.lfactor_closed(pt, "stdxspin", dv)
            a = [c - p for c, p in zip(a, [0, 0] + a)]
            b = [c - p for c, p in zip(b, [0, 0] + b)]
            closed = series.BiSeries(
                du, dv, {(i, j): a[i] * b[j] for i in range(du + 1) for j in range(dv + 1)}
            )
            yield from _series_cases(lhs, closed, ", ".join(map(str, pt)))

    return _first_mismatch("pt=(%s) U^%d V^%d", cases())


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
