"""Command-line front end: JSON in, JSON out, exact rationals as strings.

Every command prints one report object with a stable field order, so equal
configurations produce byte-identical reports.  Elapsed time is reported
only when --timing is passed, keeping default output reproducible.  Exit
code 0 means a decided verdict (including negative ones) and 2 an argparse
usage error.  Exit codes 3 (malformed or refused input), 4 (points of
different dimensions) and 5 (unsupported input) print
{"error": {"code": ..., "message": ...}} on stdout; the README lists the
error codes of each command and the size limits behind the refusals.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import __version__, affine, formula, hull, mode
from .linalg import LinalgError
from .scalar import RingSpec, ScalarError, format_rational, parse_rational


class CliError(Exception):
    def __init__(self, code: str, message: str, exit_code: int = 3):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


@dataclass
class Report:
    command: str
    parameters: dict
    result: dict
    principle: str
    elapsed_ms: Optional[int] = None

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "version": __version__,
            "parameters": self.parameters,
            "result": self.result,
            "principle": self.principle,
        }
        if self.elapsed_ms is not None:
            payload["elapsed_ms"] = self.elapsed_ms
        return json.dumps(payload, ensure_ascii=False)


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _parse_ring(text: str) -> RingSpec:
    try:
        return RingSpec.from_json(text)
    except ScalarError as exc:
        raise CliError("bad-ring", str(exc)) from exc


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ScalarError as exc:
        raise CliError("bad-rational", str(exc)) from exc


def _decode(text: str, what: str, read: Callable = lambda data: data):
    """read applied to the JSON value of text, with every JSON decimal kept
    as its text so that parse_rational reads it exactly.  Any ValueError (a
    decoding error, or an integer longer than the interpreter reads), and a
    value whose shape read cannot take, is bad-json."""
    try:
        return read(json.loads(text, parse_float=str))
    except (ValueError, LookupError, TypeError) as exc:
        raise CliError("bad-json", f"{what}: {exc}") from exc


def _parse_point(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if text.startswith("["):
        data = _decode(text, "invalid point JSON")
        return tuple(_rational(str(c)) for c in data)
    return tuple(_rational(part) for part in text.split(","))


def _points_from_json(data) -> list[tuple[Fraction, ...]]:
    if not isinstance(data, list):
        raise CliError("bad-json", "point set JSON must be an array of vectors")
    out = []
    for item in data:
        if not isinstance(item, list):
            raise CliError("bad-json", "each point must be an array of rationals")
        out.append(tuple(_rational(str(c)) for c in item))
    return out


def _parse_point_set(text: str) -> list[tuple[Fraction, ...]]:
    """Inline set syntax: JSON, or "a;b;c" rows of comma coordinates, or a
    plain comma list of one-dimensional points."""
    text = text.strip()
    if text.startswith("["):
        return _points_from_json(_decode(text, "invalid point set JSON"))
    if ";" in text:
        rows = [row for row in text.split(";") if row.strip()]
        return [_parse_point(row) for row in rows]
    return [(_rational(part),) for part in text.split(",")]


def _inline_or_file(text: str, opener: str, kind: str) -> str:
    """The argument itself when it starts with opener, else the UTF-8 text
    of the file it names."""
    text = text.strip()
    if text.startswith(opener):
        return text
    try:
        return Path(text).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise CliError("bad-input", f"no such {kind} file: {text}") from exc
    # ValueError covers UnicodeDecodeError and a NUL in the name
    except (OSError, ValueError) as exc:
        raise CliError("bad-input", f"cannot read {kind} file: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    # ValueError covers a NUL in the name and text the encoding cannot write
    except (OSError, ValueError) as exc:
        raise CliError("bad-input", f"cannot write --out file: {exc}") from exc


def _load_point_file(text: str) -> list[tuple[Fraction, ...]]:
    text = _inline_or_file(text, "[", "point")
    return _points_from_json(_decode(text, "invalid point file"))


def _count(opts, key: str, least: int) -> int:
    """An integer option, rejected when it is below its least allowed value."""
    value = opts[key]
    if value < least:
        flag = "--" + key.replace("_", "-")
        raise CliError("bad-input", f"{flag} must be at least {least}, got {value}")
    return value


def _unused_samples(opts) -> None:
    """--samples and --seed are accepted for old command lines and unused;
    a negative --samples is still refused."""
    if opts["samples"] is not None:
        _count(opts, "samples", 0)


def _fmt_point(point: Sequence[Fraction]) -> list[str]:
    return [format_rational(c) for c in point]


def _fmt_map(psi: Optional[affine.AffineMap]):
    if psi is None:
        return None
    return {
        "matrix": [[format_rational(c) for c in row] for row in psi.matrix],
        "translation": _fmt_point(psi.translation),
    }


def _require_same_dimension(*point_groups):
    dims = {len(p) for group in point_groups for p in group}
    if len(dims) > 1:
        raise CliError(
            "dimension-mismatch",
            f"points live in different ambient dimensions: {sorted(dims)}",
            exit_code=4,
        )


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _cmd_hull_member(opts) -> dict:
    point = _parse_point(opts["point"])
    points = _parse_point_set(opts["set"])
    _require_same_dimension([point], points)
    if opts.get("ring"):
        ring = _parse_ring(opts["ring"])
        report = hull.membership_report_T(point, points, ring)
    else:
        report = hull.membership_report_Q(point, points)
    result = {
        "member": report.member,
        "reason": report.reason,
        "combination": (
            None
            if report.combination is None
            else [[i, format_rational(c)] for i, c in report.combination.support]
        ),
        "certificate": (
            None
            if report.certificate is None
            else [format_rational(c) for c in report.certificate]
        ),
    }
    if report.rational_point is not None:
        result["rational_point"] = _fmt_point(report.rational_point)
    return result


def _cmd_caratheodory(opts) -> dict:
    point = _parse_point(opts["point"])
    points = _parse_point_set(opts["set"])
    _require_same_dimension([point], points)
    if not points:
        raise CliError("bad-input", "empty generating set")
    try:
        indices, coeffs = hull.caratheodory(point, points)
    except hull.HullError as exc:
        raise CliError("not-a-member", str(exc)) from exc
    return {
        "indices": indices,
        "coefficients": [format_rational(c) for c in coeffs],
        "support_points": [_fmt_point(points[i]) for i in indices],
    }


def _cmd_synth_formula(opts) -> dict:
    ring = _parse_ring(opts["ring"])
    coeffs = [_rational(c) for c in opts["coeffs"].split(",")]
    try:
        phi = formula.synth_phi(coeffs, ring)
    except formula.FormulaError as exc:
        raise CliError("bad-coefficients", str(exc)) from exc
    return {
        "formula": json.loads(formula.formula_to_json(phi)),
        "text": formula.format_formula(phi),
        "verified": formula.verify_phi(phi, coeffs),
    }


def _read_formula(data) -> formula.ChainFormula:
    """A formula, or one unwrapped from synth-formula's full report (its
    "result"), or from that result (its "formula")."""
    if isinstance(data, dict) and "result" in data:
        data = data["result"]
    if isinstance(data, dict) and "formula" in data:
        data = data["formula"]
    return formula.formula_from_json(json.dumps(data))


def _cmd_verify_formula(opts) -> dict:
    text = _inline_or_file(opts["formula"], "{", "formula")
    phi = _decode(text, "invalid formula", _read_formula)
    coeffs = [_rational(c) for c in opts["coeffs"].split(",")]
    try:
        valid = formula.verify_phi(phi, coeffs)
    except formula.FormulaError as exc:
        raise CliError("bad-coefficients", str(exc)) from exc
    return {"valid": valid}


def _cmd_eval_term(opts) -> dict:
    try:
        term = mode.parse_term(opts["term"])
    except mode.ModeError as exc:
        raise CliError("bad-term", str(exc)) from exc
    points = _parse_point_set(opts["points"])
    _require_same_dimension(points)
    assignment = dict(enumerate(points))
    try:
        value = mode.eval_term(term, assignment)
    except mode.ModeError as exc:
        raise CliError("bad-term", str(exc)) from exc
    return {"value": _fmt_point(value)}


def _cmd_laws_check(opts) -> dict:
    _unused_samples(opts)
    report = mode.check_laws(mode.FREE_SAMPLE, mode.CORNER_PARAMETERS)
    return {
        "sample": [_fmt_point(x) for x in mode.FREE_SAMPLE],
        "parameters": [format_rational(p) for p in mode.CORNER_PARAMETERS],
        "checked": report.checked,
        "violations": [
            {
                "law": law,
                "witness": [
                    _fmt_point(w) if isinstance(w, tuple) else format_rational(w)
                    for w in witness
                ],
            }
            for law, witness in report.violations
        ],
        "cancellation_not_applicable": report.cancellation_not_applicable,
        "ok": report.ok,
    }


def _cmd_closure(opts) -> dict:
    ring = _parse_ring(opts["ring"])
    points = _parse_point_set(opts["set"])
    _require_same_dimension(points)
    depth = _count(opts, "depth", 0)
    rounds = _count(opts, "rounds", 0)
    line_bound = _count(opts, "line_bound", 1)
    closure = hull.segment_closure_bounded(points, ring, depth, rounds, line_bound)
    ordered = sorted(closure)
    return {
        "bounds": {"depth": depth, "rounds": rounds, "line_bound": line_bound},
        "size": len(ordered),
        "points": [_fmt_point(p) for p in ordered],
    }


def _cmd_probe_convexity(opts) -> dict:
    ring = _parse_ring(opts["ring"])
    points = _parse_point_set(opts["set"])
    _require_same_dimension(points)
    _unused_samples(opts)
    report = hull.q_convexity_probe(points, ring)
    witness = None
    if report.witness is not None:
        x0, x1, t = report.witness
        witness = {"x0": _fmt_point(x0), "x1": _fmt_point(x1), "t": format_rational(t)}
    return {
        "q_convex": report.q_convex,
        "witness": witness,
        "prime": report.prime,
        "coordinate": report.coordinate,
        "valuation_bound": report.valuation_bound,
    }


def _load_polytopes(opts) -> tuple[hull.VPolytope, hull.VPolytope]:
    left = _load_point_file(opts["left"])
    right = _load_point_file(opts["right"])
    if not left or not right:
        raise CliError("unsupported", "empty generating sets are unsupported", 5)
    _require_same_dimension(left, right)
    return hull.VPolytope(left), hull.VPolytope(right)


def _cmd_affine_equiv(opts) -> dict:
    left, right = _load_polytopes(opts)
    verdict = affine.affine_equivalence(left, right)
    return {
        "equivalent": verdict.equivalent,
        "reason": verdict.reason,
        "witness": _fmt_map(verdict.witness),
    }


def _cmd_iso_check(opts) -> dict:
    left, right = _load_polytopes(opts)
    ring = _parse_ring(opts["ring"])
    _unused_samples(opts)
    verdict = affine.iso_decide(left, right, ring)
    return {
        "isomorphic": verdict.isomorphic,
        "reason": verdict.reason,
        "witness": _fmt_map(verdict.witness),
        "rationale": verdict.rationale,
    }


def _cmd_hexagon_demo(_opts) -> dict:
    holds = affine.hexagon_relation_check()
    hexagon = [_fmt_point(v) for v in affine.HEXAGON]
    return {"holds": holds, "vertices": hexagon, "shared_midpoint": ["0", "0"]}


@dataclass(frozen=True)
class Command:
    """A subcommand; arguments are (flag, add_argument keywords) pairs."""

    handler: Callable[[dict], dict]
    help: str
    principle: str
    arguments: tuple[tuple[str, dict], ...] = ()


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_UNUSED_INT = {"type": int, "help": "unused; kept for old command lines"}

COMMANDS = {
    "hull-member": Command(
        _cmd_hull_member, "hull membership over Q or a ring",
        "membership in a coefficient-ring hull asks for a coefficient vector "
        "inside the ring's closed unit interval that sums to 1 and recombines "
        "to the query point",
        (("--point", _REQUIRED), ("--set", _REQUIRED),
         ("--ring", {"help": 'e.g. {"inverted_primes":[2]}; omit for Q'})),
    ),
    "caratheodory": Command(
        _cmd_caratheodory, "independent positive recombination",
        "every member of a rational hull is a positive combination of an "
        "affinely independent subset of the generators",
        (("--point", _REQUIRED), ("--set", _REQUIRED)),
    ),
    "synth-formula": Command(
        _cmd_synth_formula, "synthesize an existential chain formula",
        "a conjunction of two-point chain relations with one inverted-prime "
        "parameter pins down any rational affine combination existentially",
        (("--ring", _REQUIRED), ("--coeffs", {**_REQUIRED, "help": 'e.g. "-1/2,3/2"'})),
    ),
    "verify-formula": Command(
        _cmd_verify_formula, "verify a formula against coefficients",
        "re-solving the constraint system symbolically must determine every "
        "variable uniquely and reproduce the coefficient vector",
        (("--formula", {**_REQUIRED, "help": "formula JSON or a file path"}),
         ("--coeffs", _REQUIRED)),
    ),
    "eval-term": Command(
        _cmd_eval_term, "evaluate a term S-expression",
        "a binary term evaluates to the affine combination given by its "
        "expanded coefficient vector",
        (("--term", {**_REQUIRED, "help": 'e.g. "(op x0 x1 1/2)"'}),
         ("--points", {**_REQUIRED, "help": "assignment for x0,x1,..."})),
    ),
    "laws-check": Command(
        _cmd_laws_check, "prove the groupoid laws on the free sample",
        "barycentric operations are idempotent, twisted-commutative, entropic, "
        "and cancellative for nonzero parameters: both sides of each law are "
        "affine combinations with coefficients of degree at most 1 in each "
        "parameter, so equality at the affine basis of Q^3 for parameters 0 "
        "and 1 proves the laws for all points and parameters",
        (("--samples", _UNUSED_INT), ("--seed", _UNUSED_INT)),
    ),
    "closure": Command(
        _cmd_closure, "bounded segment-convex closure",
        "segment convexity requires every ring segment between two members, on "
        "every ring line through them; the engine explores a bounded slice",
        (("--set", _REQUIRED), ("--ring", _REQUIRED), ("--depth", _REQUIRED_INT),
         ("--rounds", _REQUIRED_INT), ("--line-bound", {"type": int, "default": 3})),
    ),
    "probe-convexity": Command(
        _cmd_probe_convexity, "decide rational convexity of a ring hull",
        "the ring hull of two or more distinct points is never closed under "
        "all rational barycentric operations: a prime the ring does not invert "
        "gives a point of the segment below the hull's valuation bound",
        (("--set", _REQUIRED), ("--ring", _REQUIRED),
         ("--samples", _UNUSED_INT), ("--seed", _UNUSED_INT)),
    ),
    "affine-equiv": Command(
        _cmd_affine_equiv, "affine equivalence of two V-polytopes",
        "bounded rational V-polytopes are affinely equivalent exactly when an "
        "invertible affine map bijects their vertex sets",
        (("--left", {**_REQUIRED, "help": "point file or inline JSON"}),
         ("--right", _REQUIRED)),
    ),
    "iso-check": Command(
        _cmd_iso_check, "barycentric-algebra isomorphism decision",
        "for rational polytopes, isomorphism of the barycentric algebras "
        "coincides with affine equivalence, the witness map restricted to the "
        "polytope being the isomorphism",
        (("--left", _REQUIRED), ("--right", _REQUIRED), ("--ring", _REQUIRED),
         ("--samples", _UNUSED_INT), ("--seed", _UNUSED_INT)),
    ),
    "hexagon-demo": Command(
        _cmd_hexagon_demo, "shared-midpoint hexagon demonstration",
        "in a centrally symmetric hexagon the two long diagonals share their "
        "midpoint although no vertex lies in the hull of the other five",
    ),
}


def run(name: str, options: dict, timing: bool = False) -> Report:
    started = time.monotonic()
    command = COMMANDS[name]
    try:
        result = command.handler(options)
    # a ScalarError here is a result too large to print
    except (hull.HullError, mode.ModeError, affine.AffineError, LinalgError,
            ScalarError) as exc:
        raise CliError("bad-input", str(exc)) from exc
    except RecursionError as exc:
        raise CliError("bad-input", "input is nested too deeply") from exc
    parameters = {k: v for k, v in sorted(options.items()) if v is not None}
    elapsed = int((time.monotonic() - started) * 1000) if timing else None
    return Report(
        command=name,
        parameters=parameters,
        result=result,
        principle=command.principle,
        elapsed_ms=elapsed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baryalg",
        description="Exact decision procedures for barycentric algebras "
        "over subrings of the rationals.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, kwargs in command.arguments:
            p.add_argument(flag, **kwargs)
        p.add_argument("--out", help="write the JSON report to this file")
        p.add_argument(
            "--timing", action="store_true", help="include elapsed milliseconds"
        )
    return parser


#: The parser of build_parser(), built on first use: parse_args leaves it
#: unchanged, so one instance serves every main() call in the process.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    options = vars(_parser().parse_args(argv))
    name, out, timing = (options.pop(k) for k in ("command", "out", "timing"))
    try:
        text = run(name, options, timing).to_json()
        if out:
            _write(out, text + "\n")
        else:
            print(text)
    except CliError as exc:
        payload = json.dumps({"error": {"code": exc.code, "message": str(exc)}})
        print(payload)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
