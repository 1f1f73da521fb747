"""Correctness checks on workload outputs.

Each check takes plain data (numbers, rows, dicts) read from what the
program produced and returns a list of problems, empty when the output is
correct.  Every expected value is computed here from the problem statement
or is a property the method must have; none is a stored copy of an earlier
run's output.  The functions import nothing from kortorus, so the tests in
``test_checks.py`` can feed them doctored outputs.
"""

from __future__ import annotations

import math

import numpy as np

TAU = 2.0 * math.pi


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# evolve2d


def check_evolve2d(summary: dict, rows: list[dict], *,
                   steps: int, t_end: float, mean: float, area: float) -> list[str]:
    """``kortorus simulate`` outputs of one effective_v2 run that exited 0.

    ``rows`` are the ``functionals.csv`` rows as floats by column name.
    The random_smooth perturbation has zero mean, so every row's mass is
    ``mean * area``; the effective energy is the decaying functional of the
    effective system, so it may not rise beyond roundoff; the verdict's
    Serrin value is the same time integral as the dense accumulator column.
    """
    problems = []
    if summary.get("status") != "completed":
        problems.append(f"status {summary.get('status')!r}")
    if summary.get("steps") != steps:
        problems.append(f"{summary.get('steps')} steps, expected {steps}")
    if len(rows) != steps + 1:
        problems.append(f"{len(rows)} csv rows, expected {steps + 1}")
    if not rows:
        return problems + ["functionals.csv holds no rows"]
    if _rel(rows[-1]["time"], t_end) > 1e-12:
        problems.append(f"run ended at t={rows[-1]['time']!r}, expected {t_end!r}")

    expected_mass = mean * area
    worst = max(_rel(r["mass"], expected_mass) for r in rows)
    if not worst <= 1e-12:
        problems.append(f"mass off {expected_mass!r} by {worst:.3e} relative")

    energies = [r["effective_energy"] for r in rows]
    for i in range(1, len(energies)):
        prev, cur = energies[i - 1], energies[i]
        if not cur <= prev + 1e-12 * abs(prev):
            problems.append(f"effective_energy rose at row {i}: {prev!r} -> {cur!r}")
            break

    serrin = (summary.get("verdict") or {}).get("serrin_value")
    last = rows[-1]["serrin_accumulator"]
    if not isinstance(serrin, (int, float)) or _rel(serrin, last) > 1e-12:
        problems.append(f"verdict serrin_value {serrin!r} != last "
                        f"serrin_accumulator {last!r}")
    return problems


def read_csv_rows(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# study1d


def ms1d_exact(t: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed form of the ms1d manufactured solution on n points of [0, 2 pi):

        rho = 6/5 + 7/20 exp(4/5 sin(x - 3t/5) - 4/5)
        v   = 3/10 exp(1/2 cos(x - 9t/10) - 1/2) sin x
    """
    x = TAU * np.arange(n) / n
    rho = 1.2 + 0.35 * np.exp(0.8 * np.sin(x - 0.6 * t) - 0.8)
    v = 0.3 * np.exp(0.5 * np.cos(x - 0.9 * t) - 0.5) * np.sin(x)
    return rho, v


def observed_orders(errors: list[float]) -> list[float]:
    """log2 of successive error ratios for step counts doubling each time."""
    return [math.log2(a / b) if a > 0.0 and b > 0.0 else math.nan
            for a, b in zip(errors, errors[1:])]


def check_convergence(errors: dict[str, list[float]],
                      min_order: dict[str, float]) -> list[str]:
    problems = []
    for scheme, errs in errors.items():
        orders = observed_orders(errs)
        if not all(o >= min_order[scheme] for o in orders):
            problems.append(f"{scheme} observed orders {orders}, "
                            f"need >= {min_order[scheme]}")
    return problems


def mass_drift(masses: list[float]) -> float:
    return max(abs(m - masses[0]) for m in masses) / abs(masses[0])


def check_mass(masses: list[float], tol: float, what: str) -> list[str]:
    drift = mass_drift(masses)
    return [] if drift < tol else [f"{what}: mass drift {drift:.3e} >= {tol:.0e}"]


def check_squeeze(ended_by: str, vacuum: list[float], masses: list[float]) -> list[str]:
    """A vacuum-squeeze run must end in PositivityLoss, with the vacuum
    indicator above 10x its initial value at a report before the last, and
    mass conserved on the accepted prefix."""
    problems = []
    if ended_by != "PositivityLoss":
        problems.append(f"squeeze run ended by {ended_by}, expected PositivityLoss")
    level = 10.0 * vacuum[0]
    crossed = next((i for i, v in enumerate(vacuum) if v > level), None)
    if crossed is None or crossed >= len(vacuum) - 1:
        problems.append(f"vacuum indicator crossed 10x at report {crossed} "
                        f"of {len(vacuum)}, expected before the last")
    problems += check_mass(masses, 1e-11, "squeeze run")
    return problems


# ---------------------------------------------------------------------------
# verify_seeds


def check_verify(exit_code: int, lines: list[str], expected_checks: int) -> list[str]:
    """``kortorus verify all`` output: every check line reads PASS."""
    problems = []
    if exit_code != 0:
        problems.append(f"verify exited {exit_code}")
    status = [line.split()[0] for line in lines if line.startswith(("PASS", "FAIL"))]
    if len(status) != expected_checks:
        problems.append(f"{len(status)} check lines, expected {expected_checks}")
    failing = [line for line in lines if line.startswith("FAIL")]
    problems += [f"check failed: {line}" for line in failing]
    return problems
