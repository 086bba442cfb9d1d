import contextlib
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from baryalg import affine, mode
from baryalg.cli import COMMANDS, main, run

DYADIC_RING = '{"inverted_primes":[2]}'
RING3 = '{"inverted_primes":[3]}'
MIDPOINT = {
    "arity": 2,
    "variables": 3,
    "inputs": [[0, 0], [1, 1]],
    "output": 2,
    "relations": [[0, 1, "1/2", 2]],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_hull_member_ring(capsys):
    code, report = run_cli(
        capsys, "hull-member", "--ring", DYADIC_RING, "--point", "1", "--set", "0,3"
    )
    assert code == 0
    assert report["command"] == "hull-member"
    assert report["result"]["member"] is False
    assert report["result"]["rational_point"] == ["2/3", "1/3"]


def test_hull_member_rational_default(capsys):
    code, report = run_cli(capsys, "hull-member", "--point", "1", "--set", "0,3")
    assert code == 0
    assert report["result"]["member"] is True
    assert report["result"]["combination"] == [[0, "2/3"], [1, "1/3"]]


def test_json_points_are_read_exactly(capsys):
    # a decimal that is no binary float, and one below the smallest float
    for inline, as_json in [
        (("0.30000000000000000001", "0,0.3"), ("[0.30000000000000000001]", "[[0],[0.3]]")),
        (("1/2,1e-400", "0,0;1,0;0,1"), ("[0.5,1e-400]", "[[0,0],[1,0],[0,1]]")),
    ]:
        results = []
        for point, point_set in (inline, as_json, (inline[0], as_json[1]), (as_json[0], inline[1])):
            code, report = run_cli(capsys, "hull-member", "--point", point, "--set", point_set)
            results.append((code, report["result"]))
        assert results[1:] == results[:1] * 3
    code, report = run_cli(capsys, "hull-member", "--point", "[1e4301]", "--set", "[[0],[1]]")
    assert code == 3
    assert report["error"]["code"] == "bad-rational"
    assert "exceeds 4300" in report["error"]["message"]


def test_point_files_read_json_numbers_like_strings(capsys, tmp_path):
    numbers = tmp_path / "numbers.json"
    strings = tmp_path / "strings.json"
    numbers.write_text("[[0, 0], [0.30000000000000000001, 1e-400], [1, 2.5]]")
    strings.write_text('[["0", "0"], ["0.30000000000000000001", "1e-400"], ["1", "2.5"]]')
    right = '[["0","0"],["1","0"],["0","1"]]'
    for command, extra in (("affine-equiv", []), ("iso-check", ["--ring", DYADIC_RING])):
        results = []
        for left in (numbers, strings):
            code, report = run_cli(capsys, command, "--left", str(left), "--right", right, *extra)
            assert code == 0
            results.append(report["result"])
        assert results[0] == results[1]


def test_hull_member_infeasible_certificate(capsys):
    code, report = run_cli(capsys, "hull-member", "--point", "4", "--set", "0,3")
    assert code == 0
    assert report["result"]["member"] is False
    assert report["result"]["certificate"] is not None


def test_caratheodory_command(capsys):
    code, report = run_cli(
        capsys,
        "caratheodory",
        "--point",
        "1/2,1/2",
        "--set",
        '[["0","0"],["1","0"],["1","1"],["0","1"]]',
    )
    assert code == 0
    assert len(report["result"]["indices"]) <= 3
    assert sum(json.loads("1") for _ in report["result"]["indices"]) <= 3


def test_synth_formula_command(capsys):
    code, report = run_cli(
        capsys, "synth-formula", "--ring", RING3, "--coeffs=-1/2,3/2"
    )
    assert code == 0
    result = report["result"]
    assert result["verified"] is True
    assert result["formula"]["relations"] == [
        [0, 3, "1/3", 1],
        [1, 4, "1/3", 2],
        [2, 5, "1/3", 3],
        [3, 6, "1/3", 4],
        [6, 3, "1/3", 5],
    ]
    assert result["formula"]["inputs"] == [[0, 0], [4, 1]]
    assert result["formula"]["output"] == 6


def test_synth_formula_over_a_large_prime(capsys):
    code, report = run_cli(
        capsys, "synth-formula", "--ring", '{"inverted_primes":[11]}', "--coeffs=1/2,1/2"
    )
    assert code == 0
    assert report["result"]["verified"] is True
    assert report["result"]["formula"]["relations"][0][2] == "1/11"


def test_verify_formula_roundtrip(capsys, tmp_path):
    code, report = run_cli(
        capsys, "synth-formula", "--ring", RING3, "--coeffs=-1/2,3/2"
    )
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(report["result"]["formula"]))
    code, verdict = run_cli(
        capsys, "verify-formula", "--formula", str(path), "--coeffs=-1/2,3/2"
    )
    assert code == 0 and verdict["result"]["valid"] is True
    code, verdict = run_cli(
        capsys, "verify-formula", "--formula", str(path), "--coeffs=-1/3,4/3"
    )
    assert code == 0 and verdict["result"]["valid"] is False


def test_verify_formula_reads_a_full_report(capsys, tmp_path, monkeypatch):
    # the README's example: synth-formula --out phi.json, then verify-formula
    monkeypatch.chdir(tmp_path)
    assert main(["synth-formula", "--ring", RING3, "--coeffs=-1/2,3/2", "--out", "phi.json"]) == 0
    report = (tmp_path / "phi.json").read_text()
    for formula in ("phi.json", report, json.dumps(json.loads(report)["result"])):
        for coeffs, valid in (("-1/2,3/2", True), ("-1/3,4/3", False)):
            code, verdict = run_cli(
                capsys, "verify-formula", "--formula", formula, f"--coeffs={coeffs}"
            )
            assert code == 0 and verdict["result"]["valid"] is valid


def test_formula_json_numbers_are_read_exactly(capsys):
    # 0.5 is 1/2, and a decimal no float holds is not rounded to it
    for param, valid in (("0.5", True), ("0.50000000000000000001", False)):
        text = json.dumps({**MIDPOINT, "relations": [[0, 1, "x", 2]]}).replace('"x"', param)
        code, report = run_cli(capsys, "verify-formula", "--formula", text, "--coeffs=1/2,1/2")
        assert code == 0 and report["result"]["valid"] is valid


def test_eval_term_command(capsys):
    code, report = run_cli(
        capsys,
        "eval-term",
        "--term",
        "(op (op x0 x1 1/2) (op x2 x3 1/2) 1/2)",
        "--points",
        "0,1,2,3",
    )
    assert code == 0
    assert report["result"]["value"] == ["3/2"]


def test_laws_check_command(capsys):
    # one check of the free sample proves the laws for all points and
    # parameters (see mode.FREE_SAMPLE)
    code, report = run_cli(capsys, "laws-check")
    assert code == 0 and report["parameters"] == {}
    result = report["result"]
    assert result["sample"] == [["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert result["parameters"] == ["0", "1"]
    assert result["ok"] is True and result["violations"] == []
    assert result["checked"] == mode.check_laws(mode.FREE_SAMPLE, [0, 1]).checked


def test_laws_check_requires_seed(capsys):
    # laws-check once sampled and so required --seed; it now draws nothing,
    # so no seed is needed and, apart from the echoed flags, every seed and
    # none give the same report
    reports = [
        run_cli(capsys, "laws-check", *extra)
        for extra in (["--seed", "4"], ["--seed", "7"], [])
    ]
    assert [code for code, _ in reports] == [0, 0, 0]
    assert [r.pop("parameters") for _, r in reports] == [{"seed": 4}, {"seed": 7}, {}]
    assert len({json.dumps(r) for _, r in reports}) == 1
    assert reports[0][1]["result"]["ok"] is True
    # an unused --seed is still read as an integer
    with pytest.raises(SystemExit) as exc:
        main(["laws-check", "--seed", "x"])
    assert exc.value.code == 2


def test_laws_check_work_is_bounded(capsys):
    # the work is the one fixed check, whatever --samples asks for; --dim,
    # which sized the sampled points, is gone
    reports = [
        run_cli(capsys, "laws-check", *extra)
        for extra in (["--samples", "1", "--seed", "4"], ["--samples", "500", "--seed", "7"],
                      ["--samples", str(10**9), "--seed", "1"], [])
    ]
    assert [code for code, _ in reports] == [0, 0, 0, 0]
    assert [r.pop("parameters") for _, r in reports] == [
        {"samples": 1, "seed": 4}, {"samples": 500, "seed": 7},
        {"samples": 10**9, "seed": 1}, {},
    ]
    assert len({json.dumps(r) for _, r in reports}) == 1
    assert reports[0][1]["result"]["checked"] == mode.check_laws(
        mode.FREE_SAMPLE, mode.CORNER_PARAMETERS).checked
    code, report = run_cli(capsys, "laws-check", "--samples=-1")
    assert code == 3 and report["error"]["code"] == "bad-input"
    for dim in ("2", "1001"):
        with pytest.raises(SystemExit) as exc:
            main(["laws-check", "--dim", dim])
        assert exc.value.code == 2


def test_laws_check_refutes_a_wrong_operation(capsys, monkeypatch):
    # x y p = x is idempotent and entropic, but neither twisted commutative
    # nor cancellative
    monkeypatch.setattr(mode, "_scaled_op", lambda u, v, a, e: tuple(e * s for s in u))
    code, report = run_cli(capsys, "laws-check")
    assert code == 0 and report["result"]["ok"] is False
    violations = report["result"]["violations"]
    assert {v["law"] for v in violations} == {"commutativity", "cancellativity"}
    # a witness entry is a point, a list of rational strings, or a
    # parameter, one rational string
    rational = re.compile(r"-?[0-9]+(/[0-9]+)?")
    kinds = set()
    for entry in (w for v in violations for w in v["witness"]):
        coordinates = entry if isinstance(entry, list) else [entry]
        assert all(isinstance(c, str) and rational.fullmatch(c) for c in coordinates)
        kinds.add(type(entry))
    assert kinds == {list, str}


def test_closure_command(capsys):
    code, report = run_cli(
        capsys,
        "closure",
        "--set",
        "0,3",
        "--ring",
        DYADIC_RING,
        "--depth",
        "1",
        "--rounds",
        "1",
    )
    assert code == 0
    assert ["1"] in report["result"]["points"]
    assert report["result"]["bounds"] == {"depth": 1, "rounds": 1, "line_bound": 3}


def test_probe_convexity_command(capsys):
    code, report = run_cli(
        capsys,
        "probe-convexity",
        "--set",
        "0,3",
        "--ring",
        DYADIC_RING,
    )
    assert code == 0
    assert report["result"] == {
        "q_convex": False,
        "witness": {"x0": ["0"], "x1": ["3"], "t": "1/3"},
        "prime": 3,
        "coordinate": 0,
        "valuation_bound": 1,
    }
    # the unused sampling flags still parse
    code, report = run_cli(
        capsys, "probe-convexity", "--set", "0", "--ring", DYADIC_RING,
        "--samples=2", "--seed=7",
    )
    assert code == 0
    assert report["result"]["q_convex"] is True


def test_affine_equiv_command(capsys, tmp_path):
    left = tmp_path / "square.json"
    right = tmp_path / "para.json"
    left.write_text('[["0","0"],["1","0"],["1","1"],["0","1"]]')
    right.write_text('[["0","0"],["2","0"],["3","1"],["1","1"]]')
    code, report = run_cli(
        capsys, "affine-equiv", "--left", str(left), "--right", str(right)
    )
    assert code == 0
    assert report["result"]["equivalent"] is True
    assert report["result"]["witness"]["matrix"] == [["2", "1"], ["0", "1"]]


def test_affine_equiv_of_the_point_of_q0(capsys):
    # the one point of the zero-dimensional space is mapped by the empty map
    code, report = run_cli(capsys, "affine-equiv", "--left", "[[]]", "--right", "[[]]")
    assert code == 0
    assert report["result"] == {
        "equivalent": True,
        "reason": "witness-found",
        "witness": {"matrix": [], "translation": []},
    }


def test_iso_check_command(capsys):
    code, report = run_cli(
        capsys,
        "iso-check",
        "--left",
        '[["0"],["1"]]',
        "--right",
        '[["0"],["3"]]',
        "--ring",
        DYADIC_RING,
    )
    assert code == 0
    assert report["result"] == {
        "isomorphic": True,
        "reason": "witness-found",
        "witness": {"matrix": [["3"]], "translation": ["0"]},
        "rationale": "the affine witness restricted to the polytope is an isomorphism "
        "of the barycentric algebras; operations commute with it exactly",
    }
    # the unused sampling flags still parse
    code, again = run_cli(
        capsys, "iso-check", "--left", '[["0"],["1"]]', "--right", '[["0"],["3"]]',
        "--ring", DYADIC_RING, "--samples=5", "--seed=2",
    )
    assert code == 0
    assert again["result"] == report["result"]


def test_iso_check_not_isomorphic_exits_zero(capsys):
    code, report = run_cli(
        capsys,
        "iso-check",
        "--left",
        '[["0","0"],["1","0"],["1","1"],["0","1"]]',
        "--right",
        '[["0","0"],["1","0"],["0","1"]]',
        "--ring",
        DYADIC_RING,
        "--seed",
        "2",
    )
    assert code == 0
    assert report["result"]["isomorphic"] is False


def test_hexagon_demo_command(capsys):
    code, report = run_cli(capsys, "hexagon-demo")
    assert code == 0
    assert report["result"]["holds"] is True


def test_error_codes(capsys, tmp_path):
    code, report = run_cli(
        capsys, "hull-member", "--ring", "{bad json", "--point", "1", "--set", "0,3"
    )
    assert code == 3
    assert report["error"]["code"] == "bad-ring"
    for primes in ('["x"]', "[2.5]"):
        code, report = run_cli(
            capsys,
            "hull-member",
            "--ring",
            '{"inverted_primes":%s}' % primes,
            "--point",
            "1",
            "--set",
            "0,3",
        )
        assert code == 3
        assert report["error"]["code"] == "bad-ring"
    code, report = run_cli(
        capsys, "hull-member", "--point", "1,2", "--set", "0,3"
    )
    assert code == 4
    assert report["error"]["code"] == "dimension-mismatch"
    code, report = run_cli(
        capsys, "hull-member", "--point", "x", "--set", "0,3"
    )
    assert code == 3
    assert report["error"]["code"] == "bad-rational"
    # an empty set is malformed input, as hull-member reads it; a point
    # outside a real hull stays not-a-member
    for command in ("hull-member", "caratheodory"):
        code, report = run_cli(capsys, command, "--point", "[5]", "--set", "[]")
        assert code == 3
        assert report["error"]["code"] == "bad-input"
    code, report = run_cli(capsys, "caratheodory", "--point", "9", "--set", "0,3")
    assert code == 3
    assert report["error"]["code"] == "not-a-member"
    code, report = run_cli(
        capsys, "affine-equiv", "--left", "no_such_file.json", "--right", "[]"
    )
    assert code == 3
    assert report["error"]["code"] == "bad-input"
    code, report = run_cli(
        capsys, "synth-formula", "--ring", DYADIC_RING, "--coeffs", "1/2,1/4"
    )
    assert code == 3
    assert report["error"]["code"] == "bad-coefficients"
    out_of_range = [
        ["closure", "--set", "0,3", "--ring", DYADIC_RING, "--depth", "1",
         "--rounds", "1", "--line-bound", "0"],
        ["laws-check", "--samples=-1", "--seed", "4"],
        ["probe-convexity", "--set", "0,3", "--ring", DYADIC_RING,
         "--samples=-1", "--seed", "1"],
        ["iso-check", "--left", '[["0"],["1"]]', "--right", '[["0"],["3"]]',
         "--ring", DYADIC_RING, "--samples=-1", "--seed", "2"],
    ]
    for argv in out_of_range:
        code, report = run_cli(capsys, *argv)
        assert code == 3
        assert report["error"]["code"] == "bad-input"
    code, report = run_cli(
        capsys, "verify-formula", "--formula", json.dumps(MIDPOINT), "--coeffs=1/2,1/2"
    )
    assert code == 0 and report["result"]["valid"] is True
    out_of_range_formulas = [
        {"relations": [[0, 8, "1/2", 7]]},
        {"output": 9},
        {"inputs": [[0, 5], [1, 1]]},
        # indices are JSON integers, never truncated or read from a bool
        {"arity": 2.9, "variables": 3.5, "inputs": [[0.7, 0], [1, 1.2]], "output": 2.1},
        {"arity": True},
        {"output": "2"},
        {"relations": [[0, 1, "1/2", 2.0]]},
    ]
    for change in out_of_range_formulas:
        text = json.dumps({**MIDPOINT, **change})
        code, report = run_cli(
            capsys, "verify-formula", "--formula", text, "--coeffs=1/2,1/2"
        )
        assert code == 3
        assert report["error"]["code"] == "bad-json"
    # one over MAX_FORMULA_VARIABLES = 40000, synthesized and parsed
    code, report = run_cli(
        capsys, "synth-formula", "--ring", DYADIC_RING, "--coeffs=39999/40000,1/40000"
    )
    assert code == 3
    assert report["error"]["code"] == "bad-coefficients"
    text = json.dumps({**MIDPOINT, "variables": 40001})
    code, report = run_cli(capsys, "verify-formula", "--formula", text, "--coeffs=1/2,1/2")
    assert code == 3
    assert report["error"]["code"] == "bad-json"
    # input nested deeper than the parsers can recurse
    deep = "[" * 5000 + "]" * 5000
    too_deep = [
        ["hull-member", "--point", "1", "--set", deep],
        ["hull-member", "--point", deep, "--set", "0,3"],
        ["hull-member", "--ring", deep, "--point", "1", "--set", "0,3"],
        ["verify-formula", "--formula", '{"formula": %s}' % deep, "--coeffs=1/2,1/2"],
        ["eval-term", "--term", "(op " * 3000 + "x0" + " x1 1/2)" * 3000,
         "--points", "0,1"],
    ]
    for argv in too_deep:
        code, report = run_cli(capsys, *argv)
        assert code == 3
        assert report["error"]["code"] == "bad-input"
    # file arguments that cannot be read: a name too long, a directory,
    # and a file that is not UTF-8
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe[")
    for name in ("x" * 5000, str(tmp_path), str(binary)):
        for argv in (
            ["affine-equiv", "--left", name, "--right", '[["0"],["1"]]'],
            ["verify-formula", "--formula", name, "--coeffs=1/2,1/2"],
        ):
            code, report = run_cli(capsys, *argv)
            assert code == 3
            assert report["error"]["code"] == "bad-input"


def test_oversized_and_malformed_inputs(capsys, tmp_path):
    big = "7" * 5000  # past the interpreter's 4300-digit limit on int("...")
    point_file = tmp_path / "big.json"
    point_file.write_text('[["%s"], [%s]]' % (big, big))
    cases = [
        (["hull-member", "--point", "[%s]" % big, "--set", "0,3"], "bad-json"),
        (["hull-member", "--point", "1", "--set", "[[%s]]" % big], "bad-json"),
        (["affine-equiv", "--left", str(point_file), "--right", '[["0"],["1"]]'],
         "bad-json"),
        (["verify-formula", "--formula", '{"output": %s}' % big, "--coeffs=1/2,1/2"],
         "bad-json"),
        (["hull-member", "--ring", '{"inverted_primes":[%s]}' % big, "--point", "1",
          "--set", "0,3"], "bad-ring"),
        # report wrappers without a formula inside
        (["verify-formula", "--formula", '{"formula": 1, "result": [1]}',
          "--coeffs=1/2,1/2"], "bad-json"),
        (["verify-formula", "--formula", '{"formula": 1, "result": {}}',
          "--coeffs=1/2,1/2"], "bad-json"),
        # past MAX_EXPONENT, and past the primality limit
        (["hull-member", "--point", "1e4301", "--set", "0,3"], "bad-rational"),
        (["synth-formula", "--ring", DYADIC_RING, "--coeffs=1e-99999999,1"],
         "bad-rational"),
        (["hull-member", "--ring", '{"inverted_primes":[3317044064679887385961981]}',
          "--point", "1", "--set", "0,3"], "bad-ring"),
        # a slice of 6**8 + 1 points, past MAX_CLOSURE_POINTS
        (["closure", "--set", "0,3", "--ring", '{"inverted_primes":[2,3]}',
          "--depth", "8", "--rounds", "1"], "bad-input"),
        # a result with a numerator of more than 4300 digits
        (["caratheodory", "--point", "1e4000", "--set", "0,1e4300"], "bad-input"),
    ]
    for argv, error in cases:
        code, report = run_cli(capsys, *argv)
        assert code == 3
        assert report["error"]["code"] == error
    code, report = run_cli(capsys, "hull-member", "--point", "1e4300", "--set", "0,3")
    assert code == 0 and report["result"]["member"] is False


def test_unwritable_out_is_bad_input(capsys, tmp_path):
    for target in (tmp_path, tmp_path / "missing" / "report.json"):
        code, report = run_cli(capsys, "hexagon-demo", "--out", str(target))
        assert code == 3
        assert report["error"]["code"] == "bad-input"
    assert list(tmp_path.iterdir()) == []


def test_internal_dimension_error_is_bad_input(capsys, monkeypatch):
    # only a real dimension mismatch exits 4; other errors that mention a
    # dimension are bad input
    def no_witness(left, scale, candidate):
        raise affine.AffineError(
            f"no affine basis of dimension {len(left.points[0])} extends the points"
        )

    monkeypatch.setattr(affine, "_witness", no_witness)
    code, report = run_cli(
        capsys, "affine-equiv", "--left", '[["0"],["1"]]', "--right", '[["0"],["3"]]'
    )
    assert code == 3
    assert report["error"]["code"] == "bad-input"


def test_every_report_states_its_principle(capsys):
    code, report = run_cli(capsys, "hexagon-demo")
    assert code == 0
    assert report["principle"]
    assert report["version"]
    code, report = run_cli(capsys, "hull-member", "--point", "1", "--set", "0,3")
    assert report["principle"]


def test_reports_are_byte_identical(capsys):
    argv = [
        "probe-convexity",
        "--set",
        "0,3",
        "--ring",
        DYADIC_RING,
        "--samples",
        "6",
        "--seed",
        "9",
    ]
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    second = capsys.readouterr().out
    assert first == second


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["hexagon-demo", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["result"]["holds"] is True


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "baryalg", "hexagon-demo"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["holds"] is True


def test_one_parser_serves_every_call_like_fresh_processes(capsys, monkeypatch):
    # main() reuses one parser per process; after argparse rejects a call or
    # prints help, the next call must still behave as in a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    sequence = [
        ["closure", "--set", "[[0]]"],
        ["eval-term", "--help"],
        ["--version"],
        ["hexagon-demo"],
    ]
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "baryalg", *argv], capture_output=True, text=True
        )
        assert (code, captured.out, captured.err) == (
            proc.returncode,
            proc.stdout,
            proc.stderr,
        )


DEEP = "[" * 3000 + "]" * 3000
BIG = "7" * 5000
SET_2D = '[["0","0"],["1","0"],["0","1"]]'
# a well-formed value for each string flag, so fuzzed runs get past parsing
FUZZ_VALID = {
    "--point": ["1", "1/3,1/3", "-1e2", "[\"1/2\"]", "[0.30000000000000000001]", "[1e-400]"],
    "--set": ["0,3", "0,1;1,0;1,1", SET_2D, "[[0],[0.3]]", "[[1e-400,0],[1,0.5],[0,1]]"],
    "--ring": [DYADIC_RING, RING3, '{"inverted_primes":[2,3]}'],
    "--coeffs": ["-1/2,3/2", "1/3,2/3", "1/2,1/4", "1/4,1/4,1/2"],
    "--formula": [
        json.dumps(MIDPOINT),
        json.dumps({"formula": MIDPOINT}),
        json.dumps({**MIDPOINT, "relations": [[0, 1, 0.5, 2]]}),
        json.dumps({"formula": {**MIDPOINT, "relations": [[0, 1, 0.5, 2]]}}),
        json.dumps({**MIDPOINT, "structure": {"kind": "identity", "coeffs": [0.5], "variable": 0}}),
        run("synth-formula", {"ring": RING3, "coeffs": "-1/2,3/2"}).to_json(),  # a full report
    ],
    "--term": ["(op x0 x1 1/2)", "(op (op x0 x1 1/3) x2 -2)"],
    "--points": ["0,1,2", "0,0;1,0;0,1"],
    "--left": ['[["0"],["2"]]', SET_2D, "[[0.1],[1e-400]]"],
    "--right": ['[["1"],["3"]]', '[["0","0"],["2","0"],["1","1"]]'],
}
FUZZ_MALFORMED = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=8).map(str),
    st.integers(-9000, 9000).map(lambda e: f"1e{e}"),
    st.text(max_size=12),
    st.sampled_from([
        DEEP, BIG, f"[{BIG}]", f"[[{BIG}]]", f'{{"inverted_primes":[{BIG}]}}',
        '{"inverted_primes":[3317044064679887385961981]}', '{"inverted_primes":[4]}',
        '{"formula": 1, "result": [1]}', '{"formula": 1, "result": {}}',
        '{"formula": %s}' % DEEP, "0,1e4300", "1e-4300,1", "0,1;1", "[1,", ";",
        "[1e4301]", "[[0],[1e-4301]]", "[[true],[null]]",
        json.dumps({**MIDPOINT, "arity": 2.9, "output": 2.1}),
        json.dumps({**MIDPOINT, "arity": True}),
        json.dumps({**MIDPOINT, "relations": [[0, 1, "x", 2]]}).replace('"x"', "1e-400"),
        json.dumps({**MIDPOINT, "relations": [[0, 1.5, "1/2", 2]]}),
        json.dumps({**MIDPOINT, "relations": [[0, 1, None, 2]]}),
    ]),
)


@pytest.mark.parametrize("name", sorted(COMMANDS))  # the same number of draws for each
@settings(
    max_examples=14,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_fuzzed_command_lines_end_in_a_report_or_a_structured_error(tmp_path, name, data):
    argv = [name]
    for flag, kwargs in COMMANDS[name].arguments:
        if data.draw(st.sampled_from([True] * 7 + [False])):  # may drop a required flag
            if kwargs.get("type") is int:  # small, so no run builds much
                value = data.draw(st.integers(-1, 1))
            else:
                value = data.draw(st.one_of(st.sampled_from(FUZZ_VALID[flag]), FUZZ_MALFORMED))
            argv.append(f"{flag}={value}")
    out = data.draw(st.sampled_from([None] * 3 + [tmp_path, tmp_path / "missing" / "r.json"]))
    if out is not None:
        argv.append(f"--out={out}")
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2  # an argparse usage error
        return
    payload = json.loads(stdout.getvalue())  # exactly one JSON object
    if code == 0:
        assert out is None and "result" in payload
    else:
        assert code in (3, 4, 5)
        assert set(payload["error"]) == {"code", "message"}
