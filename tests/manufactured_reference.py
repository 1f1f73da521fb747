"""Symbolic reference for the manufactured solutions of
``kortorus.scenarios``: the sympy expressions of each density and velocity
profile, and the forcing derived from them.  The tests hold the program's
numpy jets and forcing to these, and criterion 07 takes its exact time
derivatives from them."""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

T = sp.Symbol("t")


@dataclass(frozen=True)
class SymbolicSolution:
    """Symbolic exact solution of the effective-velocity system with forcing."""

    sid: str
    dim: int
    rho_expr: sp.Expr
    v_exprs: tuple[sp.Expr, ...]

    @property
    def coords(self) -> tuple[sp.Symbol, ...]:
        return sp.symbols("x y")[: self.dim]

    def lambdify(self, expr: sp.Expr):
        """Numeric callable (t, *coords) -> samples of ``expr``."""
        return sp.lambdify((T, *self.coords), expr, modules="numpy")

    def forcing_exprs(self, mu: float, kappa: float, a: float,
                      gamma: float) -> tuple[sp.Expr, tuple[sp.Expr, ...]]:
        """Symbolic (f_rho, f_v) making (rho, v) an exact solution of

            d_t rho + div(rho v) - (kappa/mu) Lap rho = f_rho,
            d_t v + (u . grad) v - (div(mu rho grad v) - grad(a rho^gamma))/rho = f_v,

        with u = v - (kappa/mu) grad ln rho."""
        t = sp.Symbol("t")
        coords = self.coords
        rho = self.rho_expr
        v = list(self.v_exprs)
        eps = kappa / mu

        u = [v[j] - eps * sp.diff(sp.log(rho), coords[j]) for j in range(self.dim)]
        div_rho_v = sum(sp.diff(rho * v[i], coords[i]) for i in range(self.dim))
        lap_rho = sum(sp.diff(rho, c, 2) for c in coords)
        f_rho = sp.diff(rho, t) + div_rho_v - eps * lap_rho

        f_v = []
        for j in range(self.dim):
            advect = sum(u[i] * sp.diff(v[j], coords[i]) for i in range(self.dim))
            diffusion = sum(sp.diff(mu * rho * sp.diff(v[j], coords[i]), coords[i])
                            for i in range(self.dim))
            grad_p = sp.diff(a * rho ** gamma, coords[j])
            f_v.append(sp.diff(v[j], t) + advect - (diffusion - grad_p) / rho)
        return f_rho, tuple(f_v)


def _registry() -> dict[str, SymbolicSolution]:
    t, x, y = sp.symbols("t x y")
    ms1d = SymbolicSolution(
        "ms1d", 1,
        sp.Rational(6, 5) + sp.Rational(7, 20) * sp.exp(
            sp.Rational(4, 5) * sp.sin(x - sp.Rational(3, 5) * t) - sp.Rational(4, 5)),
        (sp.Rational(3, 10) * sp.exp(
            sp.Rational(1, 2) * sp.cos(x - sp.Rational(9, 10) * t) - sp.Rational(1, 2))
         * sp.sin(x),))
    ms2d = SymbolicSolution(
        "ms2d", 2,
        sp.Rational(13, 10) + sp.Rational(1, 5) * sp.exp(
            sp.Rational(1, 2) * sp.sin(x - sp.Rational(2, 5) * t) - sp.Rational(1, 2))
        * sp.cos(y),
        (sp.Rational(1, 5) * sp.sin(x + sp.Rational(3, 10) * t) * sp.cos(y),
         sp.Rational(3, 20) * sp.cos(x) * sp.sin(y - sp.Rational(1, 2) * t)))
    return {ms.sid: ms for ms in (ms1d, ms2d)}


SOLUTIONS = _registry()
