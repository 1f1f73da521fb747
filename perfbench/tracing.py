"""Tracing from outside the program, for the ``--trace 1`` run.

Two kinds of instrument, both installed by replacing a name where its
caller looks it up:

* FFT counters on the forward and inverse entry points of ``numpy.fft`` and
  ``scipy.fft``, installed before kortorus is imported, so that a move to
  another entry point (``scipy.fft.rfftn``, say) is still counted.  Each
  call adds to the call count, to the points transformed (input size) and
  to the FFT time of the innermost open span.
* Spans around calls into the public functions of the kortorus modules:
  name, start, end, parent span and the phase (setup, warm-up or round).
  Spans are kept in memory and written out when the run ends.

A name that is missing (renamed by a later change) is listed in
``Tracer.missing``, and the worker then stops without a result: metrics
built on a missing span would read 0 and look like a gain.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import wrap_fft_entry_points

VERIFY_SUITES = ("appendix", "entropy", "lp_partition", "lp_norms", "heat")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int
    phase: str
    fft_calls0: int
    fft_points0: int
    end: float = 0.0
    fft_calls1: int = 0
    fft_points1: int = 0
    fft_s_direct: float = 0.0  # FFT time not inside a child span
    ok: bool = True
    note: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def fft_calls(self) -> int:
        return self.fft_calls1 - self.fft_calls0

    @property
    def fft_points(self) -> int:
        return self.fft_points1 - self.fft_points0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.fft_calls = 0
        self.fft_points = 0
        self.fft_by_phase: dict[str, list] = {}  # phase -> [calls, seconds]
        self.missing: list[str] = []

    # -- instruments --------------------------------------------------------

    def _counted_fft(self, name, fn):
        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            if not self.enabled:
                return fn(x, *args, **kwargs)
            t0 = time.perf_counter()
            out = fn(x, *args, **kwargs)
            dt = time.perf_counter() - t0
            self.fft_calls += 1
            self.fft_points += getattr(x, "size", 0)
            phase = self.fft_by_phase.setdefault(self.phase, [0, 0.0])
            phase[0] += 1
            phase[1] += dt
            if self._stack:
                self.spans[self._stack[-1]].fft_s_direct += dt
            return out
        return counted

    def spanned(self, name: str, fn, note=None, wrap_result=None):
        """``fn`` wrapped in a span; ``note(result)`` or ``note(exc)`` gives
        a number kept on the span, ``wrap_result`` replaces the result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                out = fn(*args, **kwargs)
                return wrap_result(out) if wrap_result else out
            span = Span(name, time.perf_counter(),
                        self._stack[-1] if self._stack else -1, self.phase,
                        self.fft_calls, self.fft_points)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.ok = False
                if note is not None:
                    span.note = note(exc)
                raise
            finally:
                self._stack.pop()
                span.end = time.perf_counter()
                span.fft_calls1 = self.fft_calls
                span.fft_points1 = self.fft_points
            if note is not None:
                span.note = note(out)
            return wrap_result(out) if wrap_result else out
        return traced

    def install_fft_counters(self):
        wrap_fft_entry_points(self._counted_fft)

    def wrap(self, path: str, name: str, **kwargs):
        """Replace ``path`` (``module:attr`` or ``module:Class.method``)."""
        module_name, _, attr = path.partition(":")
        owner = importlib.import_module(module_name)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, leaf):
            self.missing.append(path)
            return
        setattr(owner, leaf, self.spanned(name, getattr(owner, leaf), **kwargs))

    def install_spans(self):
        def states_held(out):
            traj = getattr(out, "trajectory", out)
            return float(len(getattr(traj, "states", [])))

        for caller in ("kortorus.timestepping", "kortorus.cli"):
            self.wrap(f"{caller}:run", "timestepping.run", note=states_held)
            self.wrap(f"{caller}:evaluate_report", "functionals.evaluate_report")
        self.wrap("kortorus.timestepping:Stepper.advance", "timestepping.advance")
        self.wrap("kortorus.timestepping:cfl_dt", "timestepping.cfl_dt")
        self.wrap("kortorus.timestepping:rhs", "model.rhs")
        self.wrap("kortorus.verify:rhs", "model.rhs")
        self.wrap("kortorus.cli:blow_up_verdict", "functionals.blow_up_verdict")
        self.wrap("kortorus.cli:main", "cli.main")
        for writer in ("_write_csv", "_write_jsonl", "_write_snapshots"):
            self.wrap(f"kortorus.cli:{writer}", "cli.write")
        for caller in ("kortorus.littlewood_paley", "kortorus.cli"):
            self.wrap(f"{caller}:besov_norm", "littlewood_paley.besov_norm")
        self.wrap("kortorus.littlewood_paley:heat_regularity_check",
                  "littlewood_paley.heat_regularity_check")

        evaluate = functools.partial(self.spanned, "scenarios.forcing_eval")
        self.wrap("kortorus.scenarios:ManufacturedSolution.forcing",
                  "scenarios.forcing", wrap_result=evaluate)

        from kortorus import verify
        suites = getattr(verify, "SUITES", {})
        for suite in VERIFY_SUITES:
            key = suite.replace("_", "-")
            if key in suites:
                suites[key] = self.spanned("verify." + suite, suites[key], note=_count)
            else:
                self.missing.append(f"kortorus.verify:SUITES[{key!r}]")

    # -- results ------------------------------------------------------------

    def totals(self, phase: str) -> dict[str, dict]:
        """Per span name: calls, failures, inclusive seconds, FFT calls and
        points inside, largest note, and self seconds (less child spans and
        FFTs called directly)."""
        out: dict[str, dict] = {}
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_s[span.parent] += span.duration
        for i, span in enumerate(self.spans):
            if span.phase != phase:
                continue
            t = out.setdefault(span.name, dict(calls=0, failed=0, s=0.0, self_s=0.0,
                                               fft_calls=0, fft_points=0, note=0.0,
                                               note_sum=0.0))
            t["calls"] += 1
            t["failed"] += not span.ok
            t["s"] += span.duration
            t["self_s"] += span.duration - child_s[i] - span.fft_s_direct
            t["fft_calls"] += span.fft_calls
            t["fft_points"] += span.fft_points
            if span.note is not None:
                t["note"] = max(t["note"], span.note)
                t["note_sum"] += span.note
        return out

    def write(self, path: Path, extra: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "phase", "fft_calls",
                  "fft_points", "fft_s_direct", "ok", "note")
        rows = [[s.name, s.start, s.end, s.parent, s.phase, s.fft_calls,
                 s.fft_points, s.fft_s_direct, s.ok, s.note] for s in self.spans]
        path.write_text(json.dumps({"fields": fields, "spans": rows, **extra}))


def _count(out) -> float:
    return float(len(out)) if isinstance(out, list) else 0.0


def layer_metrics(tracer: Tracer, rounds: int, setup: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round (totals over ``rounds`` traced
    rounds, divided by ``rounds``), plus the set-up phase metrics in ``setup``."""
    t = tracer.totals("round")

    def total(name, key="s"):
        return t.get(name, {}).get(key, 0)

    def per_round(name, key="s"):
        return total(name, key) / rounds

    def ratio(a, b):
        return a / b if b else 0.0

    adv, rep = "timestepping.advance", "functionals.evaluate_report"
    besov = "littlewood_paley.besov_norm"
    accepted = total(adv, "calls") - total(adv, "failed")
    fft_calls, fft_s = tracer.fft_by_phase.get("round", (0, 0.0))
    m = {
        "spectral.fft_calls_per_step": ratio(total(adv, "fft_calls"), total(adv, "calls")),
        "spectral.fft_points_per_step": ratio(total(adv, "fft_points"),
                                              total(adv, "calls")),
        "spectral.fft_calls_per_report": ratio(total(rep, "fft_calls"),
                                               total(rep, "calls")),
        "spectral.fft_s": fft_s / rounds,
        "spectral.fft_calls": fft_calls / rounds,
        "model.rhs_calls": per_round("model.rhs", "calls"),
        "model.rhs_s": per_round("model.rhs"),
        "timestepping.advance_calls": per_round(adv, "calls"),
        "timestepping.advance_s": per_round(adv),
        "timestepping.accepted_steps": accepted / rounds,
        "timestepping.rejected_steps": per_round(adv, "failed"),
        "timestepping.accept_ratio": ratio(accepted, total(adv, "calls")),
        "timestepping.cfl_dt_s": per_round("timestepping.cfl_dt"),
        "timestepping.states_held": total("timestepping.run", "note"),
        "functionals.report_calls": per_round(rep, "calls"),
        "functionals.report_s": per_round(rep),
        "functionals.verdict_s": per_round("functionals.blow_up_verdict"),
        "scenarios.forcing_eval_calls": per_round("scenarios.forcing_eval", "calls"),
        "scenarios.forcing_eval_s": per_round("scenarios.forcing_eval"),
        "littlewood_paley.besov_norm_calls": per_round(besov, "calls"),
        "littlewood_paley.besov_norm_s": per_round(besov),
        "littlewood_paley.fft_calls_per_besov_norm": ratio(total(besov, "fft_calls"),
                                                           total(besov, "calls")),
        "littlewood_paley.heat_check_s":
            per_round("littlewood_paley.heat_regularity_check"),
        "cli.write_s": per_round("cli.write"),
    }
    for suite in VERIFY_SUITES:
        m[f"verify.{suite}_s"] = per_round("verify." + suite)
    m["verify.checks"] = sum(per_round("verify." + suite, "note_sum")
                             for suite in VERIFY_SUITES)
    m.update(setup)
    return m
