"""Numeric audits of the logarithm-growth inequalities and the tower
products that control the layered-norm refinement argument.

Everything tower-shaped lives in base-2 log domain: a level r is stored
as lam = log2(r), and the weight of r is recovered as
lam + log2(1 + 2^-lam).  The towers square their exponent at every step,
so direct representation would overflow after two levels while the log
form never does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import (
    DEFAULT_SUPPORT_GUARD,
    DEFAULT_TOLERANCE,
    DomainError,
    EngineCheckError,
    F_SYSTEM,
    NormSystem,
    _routes_flat,
    _tail_layer,
    build_tables,
    tail_layer_norm,
)
from .vectors import FinVector

LOG2_9 = math.log2(9.0)


# ---------------------------------------------------------------------------
# Log-domain weights and towers
# ---------------------------------------------------------------------------

def f_log2(lam: float) -> float:
    """log-weight of r = 2^lam under f(r) = log2(r + 1)."""
    if lam > 1074.0 or math.isinf(lam):
        return lam
    return lam + math.log2(1.0 + 2.0 ** (-lam))


def g_log2(lam: float) -> float:
    """log-weight of r = 2^lam under g(r) = log2(1 + r/2)."""
    if lam > 1075.0 or math.isinf(lam):
        return lam - 1.0
    return (lam - 1.0) + math.log2(1.0 + 2.0 ** (1.0 - lam))


@dataclass(frozen=True)
class Tower:
    """Levels r_0 = r, r_{k+1} = r_k ** weight(r_k), stored as log2 values."""

    lambdas: tuple[float, ...]
    kind: str    # "f" or "g"

    @staticmethod
    def grow(lam0: float, length: int, kind: str = "f") -> "Tower":
        if lam0 <= 0.0:
            raise DomainError("tower base must exceed 1 (lam0 > 0)")
        weight = f_log2 if kind == "f" else g_log2
        lams = [float(lam0)]
        for _ in range(length - 1):
            lam = lams[-1]
            lams.append(math.inf if math.isinf(lam) else weight(lam) * lam)
        return Tower(tuple(lams), kind)


# ---------------------------------------------------------------------------
# Inequality audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    inequality: str
    grid: str
    min_margin: float
    argmin: tuple
    counterexample: Optional[tuple]   # (point..., margin) iff min_margin < 0

    def passed(self) -> bool:
        return self.counterexample is None

    def to_jsonable(self) -> dict:
        return {"inequality": self.inequality, "grid": self.grid,
                "min_margin": self.min_margin, "argmin": list(self.argmin),
                "counterexample": (None if self.counterexample is None
                                   else list(self.counterexample))}


def default_xi_grid() -> np.ndarray:
    """xi = 2^(k/4) for k = 0..256: quarter octaves up to 2^64."""
    return np.exp2(np.arange(0, 64 * 4 + 1) / 4)


def default_nu_grid() -> np.ndarray:
    """nu = 2^(k/4) for k = 0..64: quarter octaves up to 2^16."""
    return np.exp2(np.arange(0, 16 * 4 + 1) / 4)


def _require_grid(name: str, grid: np.ndarray) -> np.ndarray:
    if grid.size == 0:
        raise DomainError(f"empty grid for {name}")
    return grid


def _report(name: str, grid_desc: str, margins: np.ndarray,
            axes: tuple[np.ndarray, ...]) -> AuditReport:
    """The minimum margin and its grid point: axis k of ``margins`` runs
    over ``axes[k]``."""
    if margins.size == 0:
        raise DomainError(f"empty grid for {name}")
    idx = int(np.argmin(margins))
    mval = float(margins.flat[idx])
    pt = tuple(float(ax[k]) for ax, k in zip(axes, np.unravel_index(idx, margins.shape)))
    counter = (*pt, mval) if mval < 0.0 else None
    return AuditReport(name, grid_desc, mval, pt, counter)


def audit_slack(c: float, xi_grid: Optional[np.ndarray] = None) -> AuditReport:
    """E1: weight(xi) - 1 >= weight(xi)/c for xi >= 2."""
    grid = default_xi_grid() if xi_grid is None else np.asarray(xi_grid, dtype=float)
    grid = _require_grid("E1", grid[grid >= 2.0])
    fx = np.log2(grid + 1.0)
    margins = (fx - 1.0) - fx / c
    return _report("E1", f"xi in [2, {grid.max():g}] ({grid.size} pts)",
                   margins, (grid,))


def audit_product_growth_printed(c: float, xi_grid: Optional[np.ndarray] = None
                                 ) -> AuditReport:
    """E2 as printed: c*weight(xi) >= weight(xi*xi') - weight(xi) for
    xi, xi' >= c.  Fails for small xi against large xi'; the audit is
    expected to surface that counterexample family."""
    grid = default_xi_grid() if xi_grid is None else np.asarray(xi_grid, dtype=float)
    grid = _require_grid("E2_printed", grid[grid >= c])
    xi = grid[:, None]
    xip = grid[None, :]
    fx = np.log2(xi + 1.0)
    margins = c * fx - (np.log2(xi * xip + 1.0) - fx)
    return _report("E2_printed", f"xi,xi' in [{c:g}, {grid.max():g}]^2",
                   margins, (grid, grid))


def audit_subadditivity(xi_grid: Optional[np.ndarray] = None) -> AuditReport:
    """E2 in the form the refinement proof actually uses:
    weight(xi*xi') <= weight(xi) + weight(xi'), i.e. subadditivity, which
    holds for all xi, xi' >= 1 since xi*xi' + 1 <= (xi+1)(xi'+1)."""
    grid = default_xi_grid() if xi_grid is None else np.asarray(xi_grid, dtype=float)
    grid = _require_grid("E2_subadditive", grid[grid >= 1.0])
    xi = grid[:, None]
    xip = grid[None, :]
    # (xi+1)(xi'+1) = xi*xi' + xi + xi' + 1, so the margin collapses to
    # log2(1 + (xi+xi')/(xi*xi'+1)): a log1p of a nonnegative quantity,
    # which stays nonnegative in floating point as well
    margins = np.log1p((xi + xip) / (xi * xip + 1.0)) / math.log(2.0)
    return _report("E2_subadditive", f"xi,xi' in [1, {grid.max():g}]^2",
                   margins, (grid, grid))


def audit_root_power(c: float, xi_grid: Optional[np.ndarray] = None) -> AuditReport:
    """E3: weight(xi ** (1/sqrt(weight(xi)))) <= c * sqrt(weight(xi))."""
    grid = default_xi_grid() if xi_grid is None else np.asarray(xi_grid, dtype=float)
    grid = _require_grid("E3", grid[grid >= c])
    fx = np.log2(grid + 1.0)
    lam = np.log2(grid)
    lam_root = lam / np.sqrt(fx)
    margins = c * np.sqrt(fx) - (lam_root + np.log2(1.0 + np.exp2(-lam_root)))
    return _report("E3", f"xi in [{c:g}, {grid.max():g}]",
                   margins, (grid,))


def audit_power(c: float, nu_grid: Optional[np.ndarray] = None,
                xi_grid: Optional[np.ndarray] = None) -> AuditReport:
    """E4: weight(xi ** nu) <= c * nu * weight(xi) for xi >= c, nu >= 1."""
    xg = default_xi_grid() if xi_grid is None else np.asarray(xi_grid, dtype=float)
    ng = default_nu_grid() if nu_grid is None else np.asarray(nu_grid, dtype=float)
    xg = _require_grid("E4", xg[xg >= c])
    ng = _require_grid("E4", ng[ng >= 1.0])
    lam = np.log2(xg)[None, :]
    fx = np.log2(xg + 1.0)[None, :]
    nu = ng[:, None]
    pow_lam = nu * lam
    with np.errstate(over="ignore"):
        corr = np.where(pow_lam < 1074.0, np.log2(1.0 + np.exp2(-pow_lam)), 0.0)
    margins = c * nu * fx - (pow_lam + corr)
    return _report("E4", f"nu in [1, {ng.max():g}], xi in [{c:g}, {xg.max():g}]",
                   margins, (ng, xg))


def audit_all(c: float, *, xi_grid: Optional[np.ndarray] = None,
              nu_grid: Optional[np.ndarray] = None) -> dict[str, AuditReport]:
    if not 0.0 < c < math.inf:
        raise DomainError(f"constant c must be positive and finite, got {c}")
    return {
        "E1": audit_slack(c, xi_grid),
        "E2_printed": audit_product_growth_printed(c, xi_grid),
        "E2_subadditive": audit_subadditivity(xi_grid),
        "E3": audit_root_power(c, xi_grid),
        "E4": audit_power(c, nu_grid, xi_grid),
    }


def find_min_constant(xi_grid: Optional[np.ndarray] = None,
                      nu_grid: Optional[np.ndarray] = None) -> float:
    """Smallest c on the lattice 1.01, 1.02, ..., 8 satisfying E1, E3, E4
    and subadditive E2 over the grids.  E1 at xi = 2 forces
    c >= w(2)/(w(2) - 1) ~ 2.7095, so default grids land on 2.71."""
    xg = default_xi_grid() if xi_grid is None else np.asarray(xi_grid, dtype=float)
    ng = default_nu_grid() if nu_grid is None else np.asarray(nu_grid, dtype=float)
    if xg.size == 0 or ng.size == 0:
        raise DomainError("grids must be nonempty")
    if audit_subadditivity(xg).min_margin < 0.0:
        raise EngineCheckError("subadditivity failed; grids corrupt")
    # E1 forces c > w(xi)/(w(xi)-1) > 1 somewhere on any grid, so the
    # lattice starts just above 1; grids of huge xi admit c near 1
    for k in range(101, 801):
        c = round(k * 0.01, 10)
        ok = (audit_slack(c, xg).min_margin >= 0.0
              and audit_root_power(c, xg).min_margin >= 0.0
              and audit_power(c, ng, xg).min_margin >= 0.0)
        if ok:
            return c
    raise DomainError("no admissible constant below 8")


# ---------------------------------------------------------------------------
# Convergent tower products
# ---------------------------------------------------------------------------

def gamma_factor(r: float, d: float) -> float:
    """1 / (1 - d / sqrt(weight(r))); needs weight(r) > d^2."""
    if d == 0.0:
        return 1.0
    fr = math.log2(r + 1.0)
    if not fr > d * d:
        raise DomainError(f"gamma factor needs weight(r) > d^2 "
                          f"({fr:.6g} <= {d * d:.6g})")
    return 1.0 / (1.0 - d / math.sqrt(fr))


@dataclass(frozen=True)
class TowerProductResult:
    value: float
    log2_value: float
    factors_used: int
    tail_bound: float        # bound on the log of the omitted factors
    leading_factors: tuple[float, ...]
    lambdas: tuple[float, ...]

    def to_jsonable(self) -> dict:
        return {"value": self.value, "log2_value": self.log2_value,
                "factors_used": self.factors_used, "tail_bound": self.tail_bound,
                "leading_factors": list(self.leading_factors)}


def tower_product(lam0: float, d: float, *, tail_tol: float = 1e-12,
                  kind: str = "f") -> TowerProductResult:
    """Product over the tower of gamma factors times weight ratios.

    kind "f": factors gamma(r_k) * f(9 r_k)/f(r_k) on the f-tower.
    kind "g": factors gamma~(r_k) * g(2 r_k)/g(r_k) on the g-tower, where
    g(2r) = f(r) exactly.

    The base is supplied as lam0 = log2(r) so towers like r = 2^8000 are
    representable.  Factors are accumulated until a rigorous bound on the
    log of the omitted tail drops below tail_tol: term k is at most
    (2d + A)/sqrt(w_k) with A the ratio increment bound, and the weights
    at least square at every step, so the tail is geometric.
    """
    if kind not in ("f", "g"):
        raise DomainError(f"unknown tower kind {kind!r}")
    if not tail_tol > 0.0:          # every tail bound is positive
        raise DomainError(f"tail tolerance must be positive, got {tail_tol}")
    if not math.isfinite(lam0):
        raise DomainError(f"tower base lam0 = log2(r) must be finite, got {lam0}")
    weight = f_log2 if kind == "f" else g_log2
    ratio_add = LOG2_9 if kind == "f" else 1.0
    w0 = weight(lam0)
    if not w0 > 1.0:
        raise DomainError(f"tower product needs weight(r) > 1 at the base "
                          f"({w0:.6g}); the tower does not grow")
    if not w0 > d * d:
        raise DomainError(
            f"tower product needs weight(r) > d^2 at the base "
            f"({w0:.6g} <= {d * d:.6g}); the first factor is undefined")

    lam = float(lam0)
    lams = [lam]
    log_sum = 0.0
    factors: list[float] = []
    tail = math.inf
    for k in range(64):
        wk = weight(lam)
        u = d / math.sqrt(wk) if d else 0.0
        if u >= 1.0:
            raise DomainError(f"factor {k} undefined: d/sqrt(weight) = {u:.4g} >= 1")
        gamma = 1.0 / (1.0 - u)
        # f(9r) on the f-tower; g(2r) = f(r) on the g-tower
        wtop = f_log2(lam + LOG2_9) if kind == "f" else f_log2(lam)
        factor = gamma * (wtop / wk)
        factors.append(factor)
        log_sum += math.log(factor)
        # log of the omitted factors: term j is at most C/sqrt(w_j) with
        # C = 2d + ratio_add, the weights at least square per step (so the
        # terms at least halve), and sqrt(w_{K+1}) >= lam_K/sqrt(2) for
        # both weight kinds; 3C/lam_K covers the 2*sqrt(2) worst case.
        # Valid once lam >= max(4, 3d), which keeps every omitted
        # d/sqrt(w_j) below 1/2.
        if lam >= max(4.0, 3.0 * d):
            tail = 3.0 * (2.0 * d + ratio_add) / lam
            if tail <= tail_tol:
                lams.append(wk * lam)
                break
        lam = wk * lam
        if math.isinf(lam):     # an infinite level gives a NaN factor
            raise DomainError(f"tail tolerance {tail_tol:g} is out of reach: the tower "
                              f"overflows at factor {k + 1} (tail {tail:.3g})")
        lams.append(lam)
    else:
        # the levels grow by factors near weight(r) only, so a base weight
        # close to 1 leaves the tail bound out of reach of the budget
        raise DomainError(f"tower base weight(r) = {w0:.6g} is too close to 1: the "
                          f"tail bound is not met within 64 factors (tail {tail:.3g})")

    return TowerProductResult(math.exp(log_sum), log_sum / math.log(2.0),
                              len(factors), tail, tuple(factors[:6]),
                              tuple(lams))


def beta(lam0: float, d: float, *, tail_tol: float = 1e-12) -> TowerProductResult:
    return tower_product(lam0, d, tail_tol=tail_tol, kind="f")


def beta_tilde(lam0: float, d: float, *, tail_tol: float = 1e-12) -> TowerProductResult:
    return tower_product(lam0, d, tail_tol=tail_tol, kind="g")


# ---------------------------------------------------------------------------
# One-step refinement margin for the layered norm
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefinementReport:
    lhs: float
    rhs: float
    margin: float
    inner_sup: float
    gamma: float
    r_next: float
    params: dict

    def to_jsonable(self) -> dict:
        out = {"lhs": self.lhs, "rhs": self.rhs, "margin": self.margin,
               "inner_sup": self.inner_sup, "gamma": self.gamma,
               "r_next": self.r_next}
        out.update(self.params)
        return out


def refinement_margin(x: FinVector, r: float, d: float, *,
                      system: NormSystem = F_SYSTEM,
                      tol: float = DEFAULT_TOLERANCE,
                      guard: int = DEFAULT_SUPPORT_GUARD) -> RefinementReport:
    """Report lhs = layered norm at threshold r versus
    rhs = gamma(r, d) * sup over layers ell >= r and interval partitions
    of the partition sums of the parts' layered norms at the escalated
    threshold r^w(r).

    A report, not an assertion: the analytic constants need weights far
    beyond any materialized vector, so desk-scale margins are generally
    slack.  Refused when the sup norm already attains the layered norm
    (the statement's hypothesis) or when r^w(r) overflows.
    """
    if x.is_zero():
        raise DomainError("zero vector")
    lo = max(2, system.min_parts)
    if not math.isfinite(r):
        raise DomainError(f"r must be finite, got {r}")
    if r < lo:
        raise DomainError(f"r must be >= {lo}")
    # the interval tables first: their resource check refuses before any
    # route fills tables, and a non-flat x reads lhs from them (at c = 1,
    # bitwise what tail_layer_norm returns); a flat x takes its route's value
    tables = build_tables(x, system, guard=guard)
    linf = x.linf()
    if _routes_flat(tuple(abs(v) for v in x.values)):
        lhs = tail_layer_norm(x, r, system, guard=guard)
    else:
        lhs = float(_tail_layer(linf, 1.0, tables.layer_sums(), r, system))
    if abs(lhs - linf) <= tol * max(1.0, lhs):
        raise DomainError("hypothesis violated: layered norm attained by the sup norm")
    wr = float(system.weight_fn(r))
    if not wr > d * d:
        raise DomainError(f"needs weight(r) > d^2 ({wr:.6g} <= {d * d:.6g})")
    gamma = 1.0 / (1.0 - d / math.sqrt(wr))
    lam_next = math.log2(r) * wr
    if lam_next > 900.0:
        raise DomainError("escalated threshold r**w(r) out of representable range")
    r_next = 2.0 ** lam_next

    # V[i, i + ell - 1]: layered norm at threshold r_next of the run of
    # ell positions at i, straight from the shared partition tables; one
    # scan per length writes its diagonal, and peak[i] is the run's sup
    L, vabs = tables.size, tables.vabs
    V = np.full((L, L), -np.inf)
    peak = vabs
    for ell in range(1, L + 1):
        peak = np.maximum(peak[:L - ell + 1], vabs[ell - 1:])
        i = np.arange(L - ell + 1)
        V[i, i + ell - 1] = _tail_layer(
            peak, 1.0, np.maximum.accumulate(tables.length_sums(ell), axis=1),
            r_next, system)

    # BP[p - 1, j]: best V-sum over partitions of 0..j into exactly p runs;
    # a last run m+1..j after p - 1 runs on 0..m, -inf where none fits
    BP = np.full((L, L), -np.inf)
    BP[0] = V[0]
    for p in range(1, L):
        BP[p, 1:] = np.max(BP[p - 1, :-1, None] + V[1:, 1:], axis=0)
    inner = float(_tail_layer(0.0, 1.0, np.maximum.accumulate(BP[:, L - 1]), r, system))
    rhs = gamma * inner
    return RefinementReport(lhs, rhs, rhs - lhs, inner, gamma, r_next,
                            {"r": r, "d": d, "support": L})
