"""Timing wrappers around baryalg's public functions, for the traced run.

A wrapped function records its call count, inclusive busy time and self
time.  Self time is busy time minus the time spent in wrapped functions it
called, kept with a stack of open spans.  Some wrappers also observe
arguments and results to keep deterministic work counts (LP verdicts, bit
lengths, formula sizes, CLI error codes).

Modules import some of these functions by name (`formula` holds
`hull_member_T`, `affine` holds `VPolytope`, `linalg.lp_extremum` calls
`lp_feasible` through module globals), so `install` rebinds every module
attribute that is the original function, in every loaded `baryalg` module.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Optional

#: Wrapped functions, by module, as the per-layer metrics name them.
TRACED = {
    "linalg": (
        "lp_feasible",
        "lp_extremum",
        "implicit_equalities",
        "relative_interior_point",
        "smith_normal_form",
        "solve_affine",
        "rref",
    ),
    "hull": (
        "membership_report_Q",
        "membership_report_T",
        "caratheodory",
        "VPolytope.vertices",
        "segment_closure_bounded",
        "q_convexity_probe",
    ),
    "formula": ("synth_phi", "verify_phi", "check_satisfaction"),
    "affine": (
        "affine_equivalence",
        "iso_decide",
        "map_from_correspondence",
        "affine_independent",
    ),
    "mode": ("check_laws", "eval_term", "parse_term"),
    "cli": ("main", "run", "Report.to_json"),
}

#: Error codes the CLI raises as structured `CliError` payloads; a code not
#: listed here is counted under "other".
CLI_ERROR_CODES = (
    "bad-ring",
    "bad-rational",
    "bad-json",
    "bad-input",
    "dimension-mismatch",
    "not-a-member",
    "synthesis-failed",
    "bad-coefficients",
    "bad-term",
    "unsupported",
    "other",
)

#: Deterministic counts reported beside the per-function metrics, with units.
COUNTS = {
    "linalg.lp_feasible.infeasible_share": "ratio",
    "linalg.max_bits": "bits",
    "hull.witness_max_bits": "bits",
    "formula.relations_total": "count",
    "formula.relations_max": "count",
    "affine.tuples_per_decision": "ratio",
} | {f"cli.errors.{code}": "count" for code in CLI_ERROR_CODES}


def traced_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TRACED.items() for name in names]


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    units["trace.overhead_share"] = "ratio"
    return units


def _bits(values) -> int:
    return max(
        (max(abs(q.numerator).bit_length(), q.denominator.bit_length()) for q in values),
        default=0,
    )


class Tracer:
    """Span stack plus per-function totals for one traced pass."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {name: 0 for name in COUNTS}
        self.lp_infeasible = 0
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        self.calls.setdefault(name, 0)
        self.busy.setdefault(name, 0.0)
        self.self_time.setdefault(name, 0.0)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [0.0]  # time covered by wrapped children
            stack.append(span)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.calls[name] += 1
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - span[0]
                if observe is not None:
                    observe(args, result, error)

        return wrapper

    def install(self, package) -> None:
        """Rebind every traced function in every loaded baryalg module."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))
        ]
        observers = {
            "linalg.lp_feasible": self._observe_lp_feasible,
            "linalg.lp_extremum": self._observe_lp_extremum,
            "hull.membership_report_Q": self._observe_membership,
            "hull.membership_report_T": self._observe_membership,
            "formula.synth_phi": self._observe_synth,
            "cli.run": self._observe_cli_run,
        }
        for module_name, names in TRACED.items():
            home = getattr(package, module_name)
            for name in names:
                full = f"{module_name}.{name}"
                if "." in name:  # a method or property on a class
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    if isinstance(original, property):
                        replacement = property(self.wrap(full, original.fget), doc=original.__doc__)
                    else:
                        replacement = self.wrap(full, original)
                    self._undo.append((cls, attr, original))
                    setattr(cls, attr, replacement)
                    continue
                original = getattr(home, name)
                wrapped = self.wrap(full, original, observers.get(full))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- deterministic counts -------------------------------------------------

    def _observe_lp_feasible(self, _args, result, error) -> None:
        if error is not None:
            return
        if not result.feasible:
            self.lp_infeasible += 1
        bits = _bits(result.witness or ()) if result.feasible else _bits(result.certificate or ())
        self.counts["linalg.max_bits"] = max(self.counts["linalg.max_bits"], bits)

    def _observe_lp_extremum(self, _args, result, error) -> None:
        if error is not None or result[0] != "optimal":
            return
        bits = max(_bits(result[2]), _bits((result[1],)))
        self.counts["linalg.max_bits"] = max(self.counts["linalg.max_bits"], bits)

    def _observe_membership(self, _args, report, error) -> None:
        if error is not None or report.combination is None:
            return
        bits = _bits(c for _, c in report.combination.support)
        self.counts["hull.witness_max_bits"] = max(self.counts["hull.witness_max_bits"], bits)

    def _observe_synth(self, _args, phi, error) -> None:
        if error is not None:
            return
        size = len(phi.relations)
        self.counts["formula.relations_total"] += size
        self.counts["formula.relations_max"] = max(self.counts["formula.relations_max"], size)

    def _observe_cli_run(self, _args, _report, error) -> None:
        code = getattr(error, "code", None)
        if code is not None:
            key = f"cli.errors.{code}"
            if key not in self.counts:
                key = "cli.errors.other"
            self.counts[key] += 1

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in traced_names():
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.busy_s"] = self.busy.get(name, 0.0)
            out[f"{name}.self_s"] = self.self_time.get(name, 0.0)
        counts = dict(self.counts)
        lp_calls = self.calls.get("linalg.lp_feasible", 0)
        counts["linalg.lp_feasible.infeasible_share"] = (
            self.lp_infeasible / lp_calls if lp_calls else 0.0
        )
        decisions = self.calls.get("affine.affine_equivalence", 0)
        counts["affine.tuples_per_decision"] = (
            self.calls.get("affine.affine_independent", 0) / decisions if decisions else 0.0
        )
        out.update(counts)
        return out
