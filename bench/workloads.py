"""Seeded inputs, CLI operations and output checks of the three workloads.

Every input is written as a curve JSON file before timing starts, so the
program under test only ever receives files (or the name of a bundled
fixture). Generic curves are starlike polynomials

    f(z) = z + sum_{k=2..d} a_k z^k,   sum_k k |a_k| = b < 1,

which are univalent (Alexander's criterion), as the solvers require.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

FIXTURES = ("circle", "ellipse", "cubic", "wobble")
STAR = (0.0, 1.0, 0.0, 0.0, 0.0, 0.08)    # z + 0.08 z^5, the fivefold star
POLYLINE_POINTS = 2048

# action_batch: seven degrees, each paired with BATCH_PER_DEGREE strata of b.
BATCH_DEGREES = range(2, 9)
BATCH_PER_DEGREE = 4
BATCH_B = (0.05, 0.4)

# identity and flow: one generic curve of fixed degree and size with seeded
# phases. The action is then nearly seed independent (to second order it
# depends only on |a_k|), which keeps time to result comparable across seeds.
GENERIC_DEGREE = 6
GENERIC_B = 0.2

FLOW_STEPS = 50
FLOW_THRESHOLD = 1e-9      # run_flow's default stopping action
NEHARI_BOUND = 6.0
TWIN_RTOL = 1e-6
GRUNSKY_SLACK = 1e-6
CIRCLE_ATOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass: ``liouvol <command> --curve <curve>``."""

    command: str
    curve: str                 # fixture name or curve JSON path
    label: str                 # stable id of the curve within the pass
    twin: str | None = None    # label of the curve this one must agree with
    circle: bool = False
    extra: tuple = ()

    def argv(self, out_dir):
        return [self.command, "--curve", self.curve, "--out", str(out_dir),
                *self.extra]


@dataclass
class Outcome:
    """Result of checking one finished command."""

    error: str | None = None   # exception type or failed check, None if ok
    wrong: bool = False        # exit 0 but an output check failed
    digits: float | None = None
    units: int = 1             # work units done (accepted steps for flow)
    values: dict = field(default_factory=dict)


def digits_of(rel_err):
    """-log10 of a relative error, capped at double precision."""
    return -math.log10(max(rel_err, 1e-16))


# -- curve generation --------------------------------------------------------

def starlike(rng, degree, b):
    """Random complex a_2..a_degree scaled so that sum k|a_k| = b."""
    k = np.arange(2, degree + 1)
    a = rng.normal(size=k.size) + 1j * rng.normal(size=k.size)
    return np.concatenate([[0.0, 1.0], a * (b / np.sum(k * np.abs(a)))])


def balanced(rng, degree=GENERIC_DEGREE, b=GENERIC_B):
    """k|a_k| = b/(degree-1) for every mode, with seeded phases."""
    k = np.arange(2, degree + 1)
    phases = np.exp(2j * np.pi * rng.random(k.size))
    return np.concatenate([[0.0, 1.0], phases * (b / (k * k.size))])


def write_series(path, coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)
    payload = {"series": [[c.real, c.imag] for c in coeffs]}
    Path(path).write_text(json.dumps(payload))
    return str(path)


def write_polyline(path, coeffs, n=POLYLINE_POINTS):
    theta = 2 * np.pi * np.arange(n) / n
    z = np.polynomial.polynomial.polyval(np.exp(1j * theta),
                                         np.asarray(coeffs, dtype=complex))
    points = [[p.real, p.imag] for p in z]
    Path(path).write_text(json.dumps({"points": points}))
    return str(path)


# -- workloads ---------------------------------------------------------------

class ActionBatch:
    """``action`` and ``grunsky`` on the fixtures and on seeded generic
    curves, each given as a series and as a 2048-point polyline."""

    name = "action_batch"
    unit = "command"

    def build(self, seed, in_dir):
        rng = np.random.default_rng([seed, 1])
        n = len(BATCH_DEGREES) * BATCH_PER_DEGREE
        lo, hi = BATCH_B
        # stratified b, each stratum paired with a degree at random
        b = lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n
        degree = np.repeat(list(BATCH_DEGREES), BATCH_PER_DEGREE)
        degree = degree[rng.permutation(n)]
        curves = [(name, name, None, name == "circle") for name in FIXTURES]
        for i in range(n):
            coeffs = starlike(rng, int(degree[i]), float(b[i]))
            series = write_series(in_dir / f"generic{i:02d}_series.json",
                                  coeffs)
            poly = write_polyline(in_dir / f"generic{i:02d}_polyline.json",
                                  coeffs)
            curves.append((f"generic{i:02d}s", series, None, False))
            curves.append((f"generic{i:02d}p", poly, f"generic{i:02d}s",
                           False))
        return [Op(cmd, path, label, twin=twin, circle=circle)
                for label, path, twin, circle in curves
                for cmd in ("action", "grunsky")]

    def check(self, op, out_dir, state, trace_values):
        if op.command == "action":
            s = read_json(out_dir / "action.json")["total"]
            state[op.label] = s
            if op.circle:
                if abs(s) >= CIRCLE_ATOL:
                    return Outcome("CircleActionNonzero", wrong=True)
            elif s < 0:
                return Outcome("NegativeAction", wrong=True)
            if op.twin is not None and op.twin in state:
                ref = state[op.twin]
                if abs(s - ref) > TWIN_RTOL * abs(ref):
                    return Outcome("TwinMismatch", wrong=True)
            return Outcome()
        gap = read_json(out_dir / "grunsky.json")
        lhs, rhs = gap["lhs"], gap["rhs"]
        if lhs > rhs + GRUNSKY_SLACK:
            return Outcome("GrunskyViolated", wrong=True)
        digits = None if op.circle else digits_of(abs(rhs - lhs) / rhs)
        return Outcome(digits=digits)


class Identity:
    """``verify-identity`` (S = 4 V_R) on the ellipse fixture, the fivefold
    star and one seeded generic curve."""

    name = "identity"
    unit = "command"

    def build(self, seed, in_dir):
        rng = np.random.default_rng([seed, 2])
        star = write_series(in_dir / "star.json", STAR)
        generic = write_series(in_dir / "generic.json", balanced(rng))
        return [Op("verify-identity", "ellipse", "ellipse"),
                Op("verify-identity", star, "star"),
                Op("verify-identity", generic, "generic")]

    def check(self, op, out_dir, state, trace_values):
        rep = read_json(out_dir / "verify_identity.json")
        if not rep["passed"]:
            return Outcome("IdentityNotPassed", wrong=True)
        s = rep["action_total"]
        return Outcome(digits=digits_of(abs(rep["identity_residual"]) / s))


class Flow:
    """``flow --steps 50`` from the ellipse fixture and from one seeded
    generic curve, each until the action falls below 1e-9."""

    name = "flow"
    unit = "accepted step"

    def build(self, seed, in_dir):
        rng = np.random.default_rng([seed, 3])
        generic = write_series(in_dir / "generic.json", balanced(rng))
        extra = ("--steps", str(FLOW_STEPS))
        return [Op("flow", "ellipse", "ellipse", extra=extra),
                Op("flow", generic, "generic", extra=extra)]

    def check(self, op, out_dir, state, trace_values):
        rep = read_json(out_dir / "flow.json")
        steps = rep["steps_accepted"]
        if not rep["monotone"]:
            return Outcome("FlowNotMonotone", wrong=True)
        if max(trace_values.get("flow.sup_norm") or [0.0]) > NEHARI_BOUND:
            return Outcome("NehariBoundExceeded", wrong=True)
        if rep["final_action"] >= FLOW_THRESHOLD:
            # ran out of steps: a failure to finish, not a wrong result
            return Outcome("FlowThresholdNotReached")
        # accuracy: orders of magnitude by which the action was reduced
        digits = digits_of(rep["final_action"] / rep["initial_action"])
        return Outcome(digits=digits, units=max(steps, 1),
                       values={"steps": steps})


def read_json(path):
    return json.loads(Path(path).read_text())


WORKLOADS = {w.name: w for w in (ActionBatch(), Identity(), Flow())}
