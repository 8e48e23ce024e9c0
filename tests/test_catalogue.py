"""The (id, params) pair of every check of ``verify all``, against a committed catalogue.

The pairs are read from the entries ``suites._checks`` yields, without
running a body.  A renamed check or a changed param shows up here as a
one-line diff of ``tests/data/check_catalogue.json``.  After an intended
change, rewrite the file with ``PYTHONPATH=src python3 tests/test_catalogue.py``.
"""

import json
import pathlib

from rslocal import coeffs, series, suites, symplectic

CATALOGUE = pathlib.Path(__file__).parent / "data" / "check_catalogue.json"


def catalogue() -> list:
    """[id, params] of each check of the default ``all`` config, by id; no body runs."""
    seen = [[check_id, params] for check_id, params, _ in suites._checks(suites.CheckConfig("all"))]
    # through JSON, so tuples compare as the lists the file holds
    return json.loads(json.dumps(sorted(seen, key=lambda entry: entry[0])))


def test_check_ids_and_params_match_the_catalogue():
    want = json.loads(CATALOGUE.read_text())
    assert len(want) == 39
    assert catalogue() == want


def test_listing_the_checks_runs_no_body(monkeypatch):
    # the costliest builds of three suites; an empty flag-space memo makes
    # any flag_space(q) call construct a FlagSpace
    def refuse(*args, **kwargs):
        raise AssertionError("a check body ran while the checks were listed")

    monkeypatch.setattr(symplectic, "_SPACES", {})
    monkeypatch.setattr(symplectic, "FlagSpace", refuse)
    monkeypatch.setattr(series, "local_integral_series", refuse)
    monkeypatch.setattr(coeffs, "m_brute", refuse)
    ids = [check_id for check_id, _, _ in suites._checks(suites.CheckConfig("all"))]
    assert sorted(ids) == [check_id for check_id, _ in json.loads(CATALOGUE.read_text())]


def test_run_suite_hands_each_check_to_run_check_once_in_order(monkeypatch):
    # the hook a harness replaces to run only some checks
    cfg = suites.CheckConfig("all")
    calls = []

    def record(reports, check_id, params, body):
        assert callable(body)
        calls.append((check_id, params))

    monkeypatch.setattr(suites, "_run_check", record)
    assert suites.run_suite(cfg) == []
    want = [(check_id, params) for check_id, params, _ in suites._checks(cfg)]
    assert len(want) == 39
    assert calls == want


if __name__ == "__main__":
    lines = ["  " + json.dumps(entry, sort_keys=True) for entry in catalogue()]
    CATALOGUE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
