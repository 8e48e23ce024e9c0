"""CLI behavior: determinism, exit codes, report schema, config handling."""

import itertools
import json
from fractions import Fraction

import pytest

from rslocal import cli, coeffs, series, suites
from rslocal.characters import VirtualCharacter
from rslocal.series import BiSeries
from rslocal.suites import CheckConfig, emit_report


def run_main(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chain_small_box_passes(capsys):
    code, out, _ = run_main(capsys, ["chain", "--deg-u", "2", "--deg-v", "2", "--no-timing"])
    assert code == 0
    assert "chain/local-vs-mult-m" in out


def test_json_report_round_trips(capsys):
    code, out, _ = run_main(
        capsys,
        ["coeffs", "--radius", "2", "--format", "json", "--no-timing", "--seed", "3"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == suites.REPORT_VERSION
    assert doc["config"]["radius"] == 2
    assert all(ch["status"] == "pass" for ch in doc["checks"])
    ids = [ch["id"] for ch in doc["checks"]]
    assert ids == sorted(ids)
    assert all("elapsed_ms" not in ch for ch in doc["checks"])


def test_byte_identical_reports(capsys):
    argv = ["coeffs", "--radius", "2", "--format", "json", "--no-timing"]
    _, out1, _ = run_main(capsys, argv)
    _, out2, _ = run_main(capsys, argv)
    assert out1 == out2


def test_config_error_exit_code(capsys):
    code, _, err = run_main(capsys, ["coeffs", "--prime", "7", "--no-timing"])
    assert code == 2
    assert "primes" in err


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["nonsense"])
    assert err.value.code == 2


def test_failing_check_exit_code_and_digest(capsys, monkeypatch):
    def fake_suite(cfg):
        yield "characters/forced-failure", {}, lambda: (False, "lhs-digest", "rhs-digest")

    monkeypatch.setitem(suites._SUITE_BODIES, "characters", fake_suite)
    code, out, _ = run_main(capsys, ["characters", "--no-timing"])
    assert code == 1
    assert "lhs-digest" in out and "rhs-digest" in out


def test_emit_report_empty_list():
    cfg = CheckConfig(suite="chain", fmt="json", no_timing=True)
    doc = json.loads(emit_report([], cfg))
    assert doc["checks"] == []
    assert doc["version"] == suites.REPORT_VERSION


def test_config_file_defaults_and_flag_precedence(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps({"radius": 1, "deg_u": 2, "deg_v": 2, "no_timing": True, "primes": [3]})
    )
    code, out, _ = run_main(
        capsys, ["coeffs", "--config", str(path), "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["radius"] == 1
    assert doc["config"]["primes"] == [3]
    # the flag wins over the config file
    code, out, _ = run_main(
        capsys,
        ["coeffs", "--config", str(path), "--radius", "2", "--prime", "5", "--format", "json"],
    )
    doc = json.loads(out)
    assert doc["config"]["radius"] == 2
    assert doc["config"]["primes"] == [5]
    # a malformed file value is an error even where a flag overrides it
    path.write_text(json.dumps({"radius": 1.9}))
    code, out, err = run_main(capsys, ["coeffs", "--config", str(path), "--radius", "1"])
    assert (code, out) == (2, "")
    assert "config error: config file: radius must be an integer, got 1.9" in err
    # a file that sets every key reports byte for byte as the same values given as flags
    path.write_text(json.dumps({
        "deg_u": 2, "deg_v": 1, "radius": 1, "primes": [3, 2],
        # a float coordinate reads through its decimal text: 0.1 is 1/10
        "satake": [[0.1, -2, "3/7"], [2, 1.5, 7]],
        "seed": 4, "format": "json", "no_timing": True,
    }))
    assert len(json.loads(path.read_text())) == len(cli._CONFIG_KEYS)
    code, from_file, _ = run_main(capsys, ["chain", "--config", str(path)])
    assert code == 0
    flags = [
        "--deg-u", "2", "--deg-v", "1", "--radius", "1", "--prime", "3", "--prime", "2",
        "--satake=1/10,-2,3/7", "--satake=2,3/2,7",
        "--seed", "4", "--format", "json", "--no-timing",
    ]
    code, from_flags, _ = run_main(capsys, ["chain"] + flags)
    assert code == 0
    assert from_file == from_flags
    assert json.loads(from_file)["config"]["satake_points"][0] == ["1/10", "-2", "3/7"]


def test_satake_flags(capsys):
    argv = ["chain", "--deg-u", "1", "--deg-v", "1", "--no-timing", "--format", "json"]
    code, out, _ = run_main(capsys, argv + ["--satake", "2,3,5", "--satake", "1/2,-3,5/7"])
    assert code == 0
    assert json.loads(out)["config"]["satake_points"] == [["2", "3", "5"], ["1/2", "-3", "5/7"]]
    # a negative t must be attached with "=": with a space argparse reads it as an option
    code, out, _ = run_main(capsys, argv + ["--satake=-3/7,5/2,-9/4"])
    assert code == 0
    assert json.loads(out)["config"]["satake_points"] == [["-3/7", "5/2", "-9/4"]]
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--satake", "-1,-1,1"])
    assert err.value.code == 2
    assert "argument --satake: expected one argument" in capsys.readouterr().err
    # the flag only splits its text on commas; CheckConfig.validate reads the parts
    for flag, message in [
        ("1,2", "satake point ('1', '2') does not have three rational coordinates"),
        ("1/0,1,1", "satake point ('1/0', '1', '1') does not have three rational coordinates"),
        ("1,0,2", "satake coordinates must be nonzero"),
    ]:
        code, out, err = run_main(capsys, argv + ["--satake", flag])
        assert (code, out) == (2, ""), flag
        assert err == "config error: %s\n" % message


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"primes": 5}, "config file: primes must be a list or tuple, got 5"),
        ({"radius": None}, "config file: radius must be an integer, got None"),
        ({"satake": [[1, 2]]},
         "config file: satake point (1, 2) does not have three rational coordinates"),
        ({"primes": "23"}, "config file: primes must be a list or tuple, got '23'"),
        ({"no_timing": "false"}, "config file: no_timing must be true or false, got 'false'"),
        ({"radius": 1.9}, "config file: radius must be an integer, got 1.9"),
        # the (s, w) points are gone: the key is refused whatever its value
        ({"sw": [[2]]}, "unknown config key 'sw'"),
        ({"sw": [[2, "9"]]}, "unknown config key 'sw'"),
        # well-typed, but a check over no primes or Satake points compares nothing
        ({"primes": []}, "config file: primes must not be empty"),
        ({"sw": []}, "unknown config key 'sw'"),
        ({"satake": []}, "config file: satake_points must not be empty"),
    ],
    ids=[
        "primes-not-a-list",
        "radius-null",
        "satake-two-coordinates",
        "primes-a-string",
        "no-timing-a-string",
        "radius-a-float",
        "sw-one-coordinate",
        "sw-a-string",
        "primes-empty",
        "sw-empty",
        "satake-empty",
    ],
)
def test_bad_config_value_exits_2(tmp_path, capsys, doc, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, ["chain", "--config", str(path), "--no-timing"])
    assert code == 2
    assert out == ""
    assert "config error: " + message in err


def test_character_cache_is_gone(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as err:
        cli.main(["characters", "--cache", "x"])
    assert err.value.code == 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cache": "x"}))
    code, _, err = run_main(capsys, ["characters", "--config", str(path)])
    assert code == 2
    assert "unknown config key 'cache'" in err
    cache = tmp_path / "env-cache.json"
    monkeypatch.setenv("RSLOCAL_CACHE", str(cache))
    code, _, _ = run_main(capsys, ["characters", "--no-timing"])
    assert code == 0
    assert not cache.exists()


def test_sw_flag_is_gone(capsys):
    # the p-adic identities hold for every (s, w), so no point is chosen
    with pytest.raises(SystemExit) as err:
        cli.main(["padic", "--sw", "2,9"])
    assert err.value.code == 2
    assert "unrecognized arguments: --sw" in capsys.readouterr().err


def test_series_mismatch_names_first_differing_coefficient():
    lhs = BiSeries(1, 1, {(0, 1): Fraction(1, 2), (1, 1): Fraction(3)})
    rhs = BiSeries(1, 1, {(0, 1): Fraction(2), (1, 1): Fraction(5)})
    assert suites._series_mismatch(lhs, rhs) == (
        False, "U^0 V^1: %r" % Fraction(1, 2), repr(Fraction(2))
    )
    assert suites._series_mismatch(lhs, lhs) is True
    # a coefficient present on one side only reads as 0 on the other
    absent = BiSeries(1, 1, {(1, 1): Fraction(3)})
    assert suites._series_mismatch(lhs, absent) == (False, "U^0 V^1: %r" % Fraction(1, 2), "0")
    assert suites._series_mismatch(absent, lhs) == (False, "U^0 V^1: 0", repr(Fraction(1, 2)))
    triv = VirtualCharacter.weight(0, 0, 0)
    assert suites._series_mismatch(BiSeries(0, 0, {(0, 0): triv}), BiSeries.zero(0, 0)) == (
        False, "U^0 V^0: %r" % triv, "0"
    )


def test_exception_in_check_is_an_error(capsys, monkeypatch):
    def raising_suite(cfg):
        def body():
            raise TypeError("bad table")

        def no_return():
            pass

        yield "characters/raises", {}, body
        yield "characters/passes", {}, lambda: True
        yield "characters/returns-none", {}, no_return
        yield "characters/returns-a-pair", {}, lambda: (False, "a")

    monkeypatch.setitem(suites._SUITE_BODIES, "characters", raising_suite)
    code, out, _ = run_main(capsys, ["characters", "--no-timing"])
    assert code == 1
    assert "characters/raises" in out and "error" in out
    assert "lhs: TypeError: bad table" in out
    assert "rhs: test_cli.py:" in out and " in body" in out
    code, out, _ = run_main(capsys, ["characters", "--no-timing", "--format", "json"])
    assert code == 1
    checks = {ch["id"]: ch for ch in json.loads(out)["checks"]}
    raised = checks["characters/raises"]
    assert raised["status"] == "error"
    assert raised["lhs"] == "TypeError: bad table"
    assert raised["rhs"].startswith("test_cli.py:") and raised["rhs"].endswith(" in body")
    assert checks["characters/passes"] == {"id": "characters/passes", "params": {}, "status": "pass"}
    # a result that is not True, False or (ok, lhs, rhs) is an error, not a pass
    expected = "expected True, False or (ok, lhs, rhs)"
    assert checks["characters/returns-none"] == {
        "id": "characters/returns-none", "params": {}, "status": "error",
        "lhs": "malformed outcome None: " + expected,
    }
    assert checks["characters/returns-a-pair"] == {
        "id": "characters/returns-a-pair", "params": {}, "status": "error",
        "lhs": "malformed outcome (False, 'a'): " + expected,
    }


def _grid_points(radius):
    """The in-branch points (x, y, a, b, c) of the radius grid, in lexicographic order."""
    return [
        pt
        for pt in itertools.product(range(radius + 1), repeat=5)
        if coeffs.in_first_branch(pt[2], pt[4]) or coeffs.in_second_branch(*pt[2:])
    ]


def test_coeffs_comparisons_count_the_points_in_a_branch():
    radius = 3
    want = len(_grid_points(radius))
    assert 0 < want < (radius + 1) ** 5
    reports = suites.run_suite(CheckConfig(suite="coeffs", radius=radius))
    assert len(reports) == 4
    for r in reports:
        assert r.status == "pass"
        assert r.params["comparisons"] == want


COUNTERS = ("m_closed", "m_brute", "n_interval", "n_brute")


def _coeffs_radius_3(capsys):
    code, out, _ = run_main(capsys, ["coeffs", "--radius", "3", "--format", "json", "--no-timing"])
    return code, {ch["id"]: ch for ch in json.loads(out)["checks"]}


def _wrong_at(real, bad):
    """real with its count raised by one at each point of bad."""
    def wrong(a, b, c):
        count = real(a, b, c)
        return lambda x, y: count(x, y) + ((x, y, a, b, c) in bad)

    return wrong


def test_coeffs_checks_call_each_counter_once_per_point(capsys, monkeypatch):
    points = _grid_points(3)
    blocks = sorted({pt[2:] for pt in points})
    built = {name: [] for name in COUNTERS}
    calls = {name: [] for name in COUNTERS}
    for name in COUNTERS:
        def counted(a, b, c, real=getattr(coeffs, name), made=built[name], seen=calls[name]):
            made.append((a, b, c))
            count = real(a, b, c)

            def at(x, y):
                seen.append((x, y, a, b, c))
                return count(x, y)

            return at

        monkeypatch.setattr(coeffs, name, counted)
    code, checks = _coeffs_radius_3(capsys)
    assert code == 0 and len(checks) == 4
    for name in COUNTERS:
        # each block is built once, and its function read once at each point on it
        assert sorted(built[name]) == blocks, name
        assert sorted(calls[name]) == points, name


def test_wrong_m_closed_fails_both_of_its_checks(capsys, monkeypatch):
    bad = (2, 1, 1, 1, 1)
    real = coeffs.m_closed
    monkeypatch.setattr(coeffs, "m_closed", _wrong_at(real, {bad}))
    code, checks = _coeffs_radius_3(capsys)
    assert code == 1
    want = real(*bad[2:])(*bad[:2])
    for check_id in ("coeffs/m-closed-vs-brute", "coeffs/m-vs-n"):
        assert (checks[check_id]["status"], checks[check_id]["lhs"], checks[check_id]["rhs"]) == (
            "fail", "(2,1,1,1,1): %d" % (want + 1), str(want)
        ), check_id
    for check_id in ("coeffs/n-interval-vs-brute", "coeffs/parity-consistency"):
        assert checks[check_id]["status"] == "pass", check_id


def test_a_mismatch_is_named_at_its_first_grid_point(capsys, monkeypatch):
    # (1, 1, 1) is built before (3, 3, 3), but (1, 0, 3, 3, 3) comes first in the grid
    bad = {(2, 0, 1, 1, 1), (1, 0, 3, 3, 3)}
    assert bad <= set(_grid_points(3))
    real = coeffs.m_brute
    monkeypatch.setattr(coeffs, "m_brute", _wrong_at(real, bad))
    code, checks = _coeffs_radius_3(capsys)
    assert code == 1
    want = real(3, 3, 3)(1, 0)
    check = checks["coeffs/m-closed-vs-brute"]
    assert (check["status"], check["lhs"], check["rhs"]) == (
        "fail", "(1,0,3,3,3): %d" % want, str(want + 1)
    )
    assert [cid for cid, ch in sorted(checks.items()) if ch["status"] != "pass"] == [
        "coeffs/m-closed-vs-brute"
    ]


def test_raising_n_interval_errs_both_of_its_checks(capsys, monkeypatch):
    bad = (2, 1, 1, 1, 1)
    real = coeffs.n_interval

    def raising(a, b, c):
        count = real(a, b, c)

        def broken(x, y):
            if (x, y, a, b, c) == bad:
                raise ArithmeticError("no interval at %r" % ((x, y, a, b, c),))
            return count(x, y)

        return broken

    monkeypatch.setattr(coeffs, "n_interval", raising)
    code, checks = _coeffs_radius_3(capsys)
    assert code == 1
    erred = [checks["coeffs/n-interval-vs-brute"], checks["coeffs/m-vs-n"]]
    for check in erred:
        assert check["status"] == "error", check["id"]
        assert check["lhs"] == "ArithmeticError: no interval at (2, 1, 1, 1, 1)"
        assert check["rhs"].startswith("test_cli.py:") and check["rhs"].endswith(" in broken")
    assert erred[0]["rhs"] == erred[1]["rhs"]
    for check_id in ("coeffs/m-closed-vs-brute", "coeffs/parity-consistency"):
        assert checks[check_id]["status"] == "pass", check_id


def test_parity_check_calls_delta_parity(monkeypatch, run_checks):
    # the first branch's rule in both branches: wrong wherever a + c is odd in the second
    monkeypatch.setattr(coeffs, "delta_parity", lambda a, b, c: lambda x, y: (x + y + b) & 1)
    reports = run_checks(CheckConfig(suite="coeffs", radius=2), ["coeffs/parity-consistency"])
    assert [(r.check_id, r.status) for r in reports] == [("coeffs/parity-consistency", "fail")]
    x, y, a, b, c = map(int, reports[0].lhs.split(":")[0].strip("()").split(","))
    assert coeffs.in_second_branch(a, b, c) and (a + c) % 2 == 1


def test_local_vs_closed_fails_on_a_wrong_euler_factor(monkeypatch, run_checks):
    closed = series.lfactor_closed

    def perturbed(pt, rep, deg):
        out = closed(pt, rep, deg)
        if rep == "stdxspin":
            out[2] += 1
        return out

    monkeypatch.setattr(series, "lfactor_closed", perturbed)
    cfg = CheckConfig(suite="chain", deg_u=2, deg_v=3, satake_points=((2, -3, Fraction(5, 7)),))
    reports = run_checks(cfg, ["chain/local-vs-closed"])
    assert [(r.check_id, r.status) for r in reports] == [("chain/local-vs-closed", "fail")]
    # U^0 V^2 is the first box position that sees the perturbed coefficient.  The
    # values are unnormalized: the closed side carries (1 - V^2), so it reads
    # b[2] + 1 - b[0] there, and the specialized series the true b[2] - b[0]
    b = closed(series.SatakePoint.make(2, -3, Fraction(5, 7)), "stdxspin", 3)
    assert b[2] - b[0] == Fraction(4455011, 22050)
    assert reports[0].lhs == "pt=(2, -3, 5/7) U^0 V^2: %r" % (b[2] - b[0])
    assert reports[0].rhs == repr(b[2] + 1 - b[0])


def test_wrong_block_fails_the_independent_routes(monkeypatch, run_checks):
    # the second branch's base_v 2 too high, in every builder that reads the block
    block = coeffs.block

    def shifted(a, b, c):
        base_u, base_v, dmax, emax = block(a, b, c)
        return base_u, base_v + 2 * (c < a), dmax, emax

    monkeypatch.setattr(coeffs, "block", shifted)
    ids = ["chain/local-vs-mult-m", "chain/mult-m-vs-mult-n", "chain/mult-n-vs-pieri"]
    reports = run_checks(CheckConfig(suite="chain", deg_u=4, deg_v=4), ids)
    # the local and m builders place the same counts at the same wrong base and agree;
    # n_interval also shifts by that base, so mult-n differs from both them and Pieri
    assert [(r.check_id, r.status) for r in reports] == list(zip(ids, ("pass", "fail", "fail")))
    # in the coeffs suite, n_interval and n_brute read the same base; m_closed reads none
    ids = ["coeffs/m-vs-n", "coeffs/n-interval-vs-brute"]
    reports = run_checks(CheckConfig(suite="coeffs"), ids)
    assert [(r.check_id, r.status) for r in reports] == list(zip(ids, ("fail", "pass")))
    reports = run_checks(
        CheckConfig(suite="padic", deg_u=4, deg_v=4), ["padic/torus-reconstruction"]
    )
    assert [(r.check_id, r.status) for r in reports] == [("padic/torus-reconstruction", "fail")]


@pytest.mark.parametrize(
    "cfg, message",
    [
        (CheckConfig("chain", satake_points=((1, 2),)),
         "satake point (1, 2) does not have three rational coordinates"),
        (CheckConfig("chain", satake_points=((1, "x", 2),)),
         "satake point (1, 'x', 2) does not have three rational coordinates"),
        (CheckConfig("padic", primes=((2, 3),)), "prime (2, 3) is not an integer"),
        (CheckConfig("coeffs", primes=(2, 7)), "primes must lie in {2, 3, 5}, got 7"),
        (CheckConfig("padic", primes=(2.0,)), "prime 2.0 is not an integer"),
        (CheckConfig("coeffs", radius=1.5), "radius must be an integer, got 1.5"),
        (CheckConfig("chain", deg_u=2.0), "deg_u must be an integer, got 2.0"),
        (CheckConfig("chain", seed=True), "seed must be an integer, got True"),
        (CheckConfig("chain", no_timing="false"),
         "no_timing must be true or false, got 'false'"),
        (CheckConfig("chain", primes=5), "primes must be a list or tuple, got 5"),
        (CheckConfig("chain", satake_points=5), "satake_points must be a list or tuple, got 5"),
        # a repeated prime would draw padic/det-closed-vs-minors's samples twice
        (CheckConfig("padic", primes=(2, 3, 2)), "primes must be distinct, got 2 more than once"),
    ],
    ids=["satake-two-coordinates", "satake-not-rational", "prime-a-pair",
         "prime-outside-the-set-outside-padic", "prime-a-float", "radius-a-float",
         "deg-u-a-float", "seed-a-bool", "no-timing-a-string", "primes-not-a-list",
         "satake-points-not-a-list", "primes-repeated"],
)
def test_run_suite_names_a_malformed_entry(cfg, message):
    assert cfg.validate() == [message]
    with pytest.raises(ValueError) as err:
        suites.run_suite(cfg)
    assert str(err.value) == message


def test_parity_check_reads_the_eps_of_n_interval(monkeypatch, run_checks):
    monkeypatch.setattr(coeffs, "interval_eps", lambda xx, yy, b: (xx + yy + b + 1) & 1)
    ids = ["coeffs/parity-consistency", "coeffs/m-vs-n"]
    reports = run_checks(CheckConfig(suite="coeffs", radius=2), ids)
    assert [(r.check_id, r.status) for r in reports] == [
        ("coeffs/m-vs-n", "fail"), ("coeffs/parity-consistency", "fail")
    ]
    assert reports[1].lhs == "(0,0,0,0,0): 0"
