"""Acceptance criteria: the ten exact-equality gates, one test each.

A criterion passes when each ``suite/name`` of its (CheckConfig, names) rows, run through
``suites._run`` as ``run_suite`` runs it, reports ``pass``; checks and bounds live only
in rslocal.suites.  Each prints PASS or FAIL.
"""

import pytest

from rslocal.suites import CheckConfig

CHAIN = CheckConfig("chain", seed=2024)  # one run for criteria 1, 2, 10; seed draws the points

CRITERIA = {
    "test_criterion_1_chain_identity": (
        "criterion-1 chain identity, five series pairwise equal on box (8,8)",
        [(CHAIN, "local-vs-mult-m mult-m-vs-mult-n mult-n-vs-pieri pieri-vs-lfactor")]),
    "test_criterion_2_normalization": (
        "criterion-2 normalization by the two zeta factors on box (8,8)",
        [(CHAIN, "normalization")]),
    "test_criterion_3_pieri_vs_oracle": (
        "criterion-3 pieri rule vs tensor oracle, row1<=5, k<=6, both flags",
        [(CheckConfig("pieri"), "rule-vs-tensor-oracle")]),
    "test_criterion_4_sym_power_closed_form": (
        "criterion-4 closed symmetric-power expansion, l<=8",
        [(CheckConfig("characters"), "sym-closed-vs-adams")]),
    "test_criterion_5_coefficient_counts": (
        "criterion-5 coefficient counts: m=m_brute (r=8), n=n_brute (r=6), m=n (r=10)",
        [(CheckConfig("coeffs", radius=8), "m-closed-vs-brute"),
         (CheckConfig("coeffs", radius=6), "n-interval-vs-brute"),
         (CheckConfig("coeffs", radius=10), "m-vs-n")]),
    "test_criterion_6_padic_shell_integrals": (
        "criterion-6 p-adic shell integrals: kernels for every p, every u;"
        " 500 minor configs per prime in {2,3,5}",
        [(CheckConfig("padic"), "max-kernel-integral psi-kernel-integral"),
         (CheckConfig("padic", seed=1), "det-closed-vs-minors")]),
    "test_criterion_7_fpsi_closed_vs_brute": (
        "criterion-7 twisted section integral closed form vs exact shell integral,"
        " every p, every (s, w), abc in [0,2]^3",
        [(CheckConfig("padic"), "fpsi-closed-vs-brute")]),
    "test_criterion_8_torus_reconstruction": (
        "criterion-8 torus-sum reconstruction of the series on box (6,6)",
        [(CheckConfig("padic"), "torus-reconstruction")]),
    "test_criterion_9_orbits": (
        "criterion-9 five orbits, totals 945/14560, stabilizer = shape ∩ H by count, q=2 and 3",
        [(CheckConfig("orbits"), "gamma5 flag-count-q2 flag-count-q3 orbit-split-q2"
                                 " orbit-split-q3 stab5-q2 stab5-q3 h-order-q2"
                                 " orbit-predicates-q2")]),
    "test_criterion_10_specialization": (
        "criterion-10 specialization at 5 seeded points, closed Euler factors vs the local"
        " integral on (8,8) and vs the L-factor series to degree 6",
        [(CHAIN, "specialization-pt0 specialization-pt1 specialization-pt2"
                 " specialization-pt3 specialization-pt4 local-vs-closed lfactor-closed")]),
}


def _ids(cfg, names):
    return ["%s/%s" % (cfg.suite, name) for name in names.split()]


@pytest.fixture(scope="module")
def reports(run_checks):
    """Reports by id for a config, from one run of every id the criteria name for it."""
    runs = {}
    def get(cfg):
        if repr(cfg) not in runs:
            ids = [i for _, rows in CRITERIA.values() for c, names in rows if c == cfg
                   for i in _ids(c, names)]
            runs[repr(cfg)] = {r.check_id: r for r in run_checks(cfg, ids)}
        return runs[repr(cfg)]

    return get


def _criterion_test(name):
    def test(reports):
        title, rows = CRITERIA[name]
        problems = []
        for cfg, names in rows:
            got = reports(cfg)
            for check_id in _ids(cfg, names):
                r = got.get(check_id)
                if r is None:
                    problems.append("%s: not reported" % check_id)
                elif r.status != "pass":
                    problems.append("%s %s: lhs=%s rhs=%s" % (check_id, r.status, r.lhs, r.rhs))
        print("[%s] %s" % ("FAIL" if problems else "PASS", title))
        assert not problems, "; ".join(problems)

    return test


for _name in CRITERIA:  # one test per criterion, named by its key
    globals()[_name] = _criterion_test(_name)
