"""The (id, params) pair of every check of ``verify all``, against a committed catalogue.

A renamed check or a changed param shows up here as a one-line diff of
``tests/data/check_catalogue.json``.  After an intended change, rewrite
the file with ``PYTHONPATH=src python3 tests/test_catalogue.py``.
"""

import json
import pathlib

from rslocal import suites

CATALOGUE = pathlib.Path(__file__).parent / "data" / "check_catalogue.json"


def catalogue() -> list:
    """[id, params] of each check of the default ``all`` config, by id; no body runs."""
    seen = []
    run_check = suites._run_check
    suites._run_check = lambda reports, check_id, params, fn: seen.append([check_id, params])
    try:
        suites.run_suite(suites.CheckConfig("all"))
    finally:
        suites._run_check = run_check
    # through JSON, so tuples compare as the lists the file holds
    return json.loads(json.dumps(sorted(seen, key=lambda entry: entry[0])))


def test_check_ids_and_params_match_the_catalogue():
    want = json.loads(CATALOGUE.read_text())
    assert len(want) == 39
    assert catalogue() == want


if __name__ == "__main__":
    lines = ["  " + json.dumps(entry, sort_keys=True) for entry in catalogue()]
    CATALOGUE.write_text("[\n" + ",\n".join(lines) + "\n]\n")
