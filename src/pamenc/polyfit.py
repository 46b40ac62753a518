"""LASSO polynomial approximation of the rational controller terms.

The five rational terms are sampled on a deterministic grid over the
operating box, fit by coordinate-descent LASSO on standardized features,
pruned by relative magnitude, refit by least squares on the surviving
support, and collected into the fixed 14-coefficient structure the
matrix-vector controller expects:

    f1h = w1*Kp + w2*theta^2*Kp + w3
    f2h = w4*theta + w5*theta^2 + w6
    f3h = w7*P1 + w8*theta*P1 + w9        (a theta*P1^2 candidate is offered
                                           and pruned, mirroring the removed
                                           small term in the source material)
    f4h = w10*P2 + w11*theta*P2 + w12
    f5h = w13*theta^2 + w14

Angles are radians here, so fitted coefficients are not comparable to the
published per-degree table (which ships as a data file for spot checks).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import rational_terms
from .params import PamParams

# Monomial = exponents of (theta, kp_ref, P1, P2).
Monomial = tuple[int, int, int, int]

_VAR_NAMES = ("theta", "Kp", "P1", "P2")

CONSTANT: Monomial = (0, 0, 0, 0)


def monomial_name(m: Monomial) -> str:
    if m == CONSTANT:
        return "1"
    parts = []
    for exp, name in zip(m, _VAR_NAMES):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)


def monomial_from_name(name: str) -> Monomial:
    if name.strip() == "1":
        return CONSTANT
    exps = [0, 0, 0, 0]
    for part in name.strip().split("*"):
        var, _, exp = part.partition("^")
        try:
            idx = _VAR_NAMES.index(var)
        except ValueError:
            raise ValueError(f"unknown variable in monomial {name!r}") from None
        exps[idx] = int(exp) if exp else 1
    return tuple(exps)  # type: ignore[return-value]


def eval_monomial(m: Monomial, theta, kp, p1, p2):
    return theta ** m[0] * kp ** m[1] * p1 ** m[2] * p2 ** m[3]


# Candidate monomials per target (intercept handled separately). These are
# exactly the supported slots plus the small term of f3 that pruning removes;
# every surviving term must map onto a w-slot.
DEFAULT_CANDIDATES: dict[int, tuple[Monomial, ...]] = {
    1: ((0, 1, 0, 0), (2, 1, 0, 0)),
    2: ((1, 0, 0, 0), (2, 0, 0, 0)),
    3: ((0, 0, 1, 0), (1, 0, 1, 0), (1, 0, 2, 0)),
    4: ((0, 0, 0, 1), (1, 0, 0, 1)),
    5: ((2, 0, 0, 0),),
}

# (target, monomial) -> w-slot index (1-based w1..w14).
W_SLOTS: dict[tuple[int, Monomial], int] = {
    (1, (0, 1, 0, 0)): 1,
    (1, (2, 1, 0, 0)): 2,
    (1, CONSTANT): 3,
    (2, (1, 0, 0, 0)): 4,
    (2, (2, 0, 0, 0)): 5,
    (2, CONSTANT): 6,
    (3, (0, 0, 1, 0)): 7,
    (3, (1, 0, 1, 0)): 8,
    (3, CONSTANT): 9,
    (4, (0, 0, 0, 1)): 10,
    (4, (1, 0, 0, 1)): 11,
    (4, CONSTANT): 12,
    (5, (2, 0, 0, 0)): 13,
    (5, CONSTANT): 14,
}

SLOT_NAMES: dict[int, tuple[str, str]] = {
    slot: (f"f{target}", monomial_name(mono)) for (target, mono), slot in W_SLOTS.items()
}

# Which box axes each target actually depends on.
_TARGET_AXES = {1: ("theta", "kp"), 2: ("theta",), 3: ("theta", "p1"), 4: ("theta", "p2"), 5: ("theta",)}


@dataclass(frozen=True)
class FeatureSpec:
    """Sampling box and grid density; the candidates are `DEFAULT_CANDIDATES`."""

    theta_range: tuple[float, float] = (-math.radians(25.0), math.radians(25.0))
    kp_range: tuple[float, float] = (4.0, 9.0)
    p_range: tuple[float, float] = (200.0, 750.0)
    density: int = 21

    def __post_init__(self):
        if self.density < 2:
            raise ValueError("grid density must be >= 2 per axis")
        if self.theta_range[0] <= -math.pi / 2 or self.theta_range[1] >= math.pi / 2:
            raise ValueError("theta box touches the cos(theta) singularity")


def sample_grid(spec: FeatureSpec, params: PamParams) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Deterministic tensor grids: target -> (inputs Nx4 as (theta,kp,p1,p2), values)."""
    axes = {
        "theta": np.linspace(*spec.theta_range, spec.density),
        "kp": np.linspace(*spec.kp_range, spec.density),
        "p1": np.linspace(*spec.p_range, spec.density),
        "p2": np.linspace(*spec.p_range, spec.density),
    }
    mid = {
        "theta": 0.0,
        "kp": 0.5 * sum(spec.kp_range),
        "p1": 0.5 * sum(spec.p_range),
        "p2": 0.5 * sum(spec.p_range),
    }
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for target in range(1, 6):
        names = _TARGET_AXES[target]
        grids = np.meshgrid(*(axes[n] for n in names), indexing="ij")
        cols = {n: g.ravel() for n, g in zip(names, grids)}
        n = grids[0].size
        inp = np.column_stack([
            cols.get("theta", np.full(n, mid["theta"])),
            cols.get("kp", np.full(n, mid["kp"])),
            cols.get("p1", np.full(n, mid["p1"])),
            cols.get("p2", np.full(n, mid["p2"])),
        ])
        vals = np.array([
            rational_terms(th, p1, p2, kp, params)[target - 1]
            for th, kp, p1, p2 in inp.tolist()  # Python floats: same values, faster arithmetic
        ])
        out[target] = (inp, vals)
    return out


@dataclass(frozen=True)
class LassoFit:
    coef: np.ndarray
    intercept: float
    sweeps: int
    converged: bool


def soft_threshold(rho: float, lam: float) -> float:
    return math.copysign(max(abs(rho) - lam, 0.0), rho)


_LASSO_TOL = 1e-10
_LASSO_MAX_SWEEPS = 100_000


def lasso_fit(X: np.ndarray, y: np.ndarray, lam: float) -> LassoFit:
    """Coordinate descent for (1/2n)||y - b - Xw||^2 + lam*||w||_1.

    Features are standardized internally (the intercept is unpenalized);
    returned coefficients are on the original scale. Convergence is a max
    standardized-coordinate update below `_LASSO_TOL`, within
    `_LASSO_MAX_SWEEPS` sweeps.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if lam < 0.0:
        raise ValueError("lambda must be nonnegative")
    n, d = X.shape
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    if np.any(sigma == 0.0):
        raise ValueError("constant feature column; the intercept covers constants")
    Xs = (X - mu) / sigma
    ybar = y.mean()
    yc = y - ybar

    w = np.zeros(d)
    resid = yc.copy()
    sweeps = 0
    converged = False
    while sweeps < _LASSO_MAX_SWEEPS:
        sweeps += 1
        max_delta = 0.0
        for j in range(d):
            xj = Xs[:, j]
            rho = (xj @ resid) / n + w[j]  # columns have unit variance
            w_new = soft_threshold(rho, lam)
            delta = w_new - w[j]
            if delta != 0.0:
                resid -= delta * xj
                w[j] = w_new
            max_delta = max(max_delta, abs(delta))
        if max_delta < _LASSO_TOL:
            converged = True
            break

    coef = w / sigma
    intercept = ybar - float(coef @ mu)
    return LassoFit(coef=coef, intercept=intercept, sweeps=sweeps, converged=converged)


def prune(weights: dict[Monomial, float], threshold: float) -> tuple[dict[Monomial, float], dict[Monomial, float]]:
    """Zero coefficients below `threshold` * max|w| within one target function.

    Returns (kept, dropped); the constant term participates in the scale and
    may itself be dropped.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0,1)")
    if not weights:
        return {}, {}
    scale = max(abs(v) for v in weights.values())
    if scale == 0.0:
        return dict(weights), {}
    kept, dropped = {}, {}
    for mono, val in weights.items():
        if abs(val) < threshold * scale:
            dropped[mono] = val
        else:
            kept[mono] = val
    return kept, dropped


@dataclass(frozen=True)
class PolyCoeffs:
    """The 14 named coefficients of the approximated controller (w1..w14)."""

    w: tuple[float, ...]
    pruned: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.w) != 14:
            raise ValueError("expected 14 coefficients")

    def __getitem__(self, slot: int) -> float:
        """1-based slot access: coeffs[4] is w4."""
        return self.w[slot - 1]


def eval_fhat(which: int, coeffs: PolyCoeffs, theta: float, kp_ref: float,
              p1: float, p2: float) -> float:
    """Evaluate one approximated term f1h..f5h at a point."""
    w = coeffs
    if which == 1:
        return w[1] * kp_ref + w[2] * theta * theta * kp_ref + w[3]
    if which == 2:
        return w[4] * theta + w[5] * theta * theta + w[6]
    if which == 3:
        return w[7] * p1 + w[8] * theta * p1 + w[9]
    if which == 4:
        return w[10] * p2 + w[11] * theta * p2 + w[12]
    if which == 5:
        return w[13] * theta * theta + w[14]
    raise ValueError("which must be 1..5")


@dataclass(frozen=True)
class FitReport:
    """Per-target fit diagnostics from the full pipeline."""

    lam: float
    threshold: float
    dropped: dict[int, dict[str, float]]
    sweeps: dict[int, int]
    max_scaled_err: dict[int, float]    # |fhat - f| / max|f| on interior grid
    max_pointwise_err: dict[int, float]  # |fhat - f| / |f| on interior grid


def _interior_mask(inp: np.ndarray, spec: FeatureSpec, target: int) -> np.ndarray:
    names = _TARGET_AXES[target]
    ranges = {"theta": spec.theta_range, "kp": spec.kp_range, "p1": spec.p_range, "p2": spec.p_range}
    cols = {"theta": 0, "kp": 1, "p1": 2, "p2": 3}
    mask = np.ones(len(inp), dtype=bool)
    for name in names:
        lo, hi = ranges[name]
        step = (hi - lo) / (spec.density - 1)
        col = inp[:, cols[name]]
        mask &= (col > lo + 0.5 * step) & (col < hi - 0.5 * step)
    return mask


# Default shrinkage for the standardized-feature convention used here. The
# published value 1.0 is tied to an unstated feature/target scaling; with
# unit-variance features it removes genuinely needed quadratic terms (the
# whole f5 target only spans ~0.4 N over the box), so the shipped default is
# small and the published value remains reachable through the lam argument.
DEFAULT_LAMBDA = 0.05


def fit_controller_coeffs(params: PamParams, spec: FeatureSpec | None = None,
                          lam: float = DEFAULT_LAMBDA, threshold: float = 1e-3,
                          ) -> tuple[PolyCoeffs, FitReport]:
    """Full pipeline: grid sampling, LASSO, pruning, least-squares refit on support."""
    spec = spec or FeatureSpec()
    data = sample_grid(spec, params)

    w = [0.0] * 14
    dropped_all: dict[int, dict[str, float]] = {}
    sweeps: dict[int, int] = {}
    max_scaled: dict[int, float] = {}
    max_pointwise: dict[int, float] = {}

    for target in range(1, 6):
        inp, y = data[target]
        monos = DEFAULT_CANDIDATES[target]
        X = np.column_stack([eval_monomial(m, *inp.T) for m in monos])
        fit = lasso_fit(X, y, lam)
        sweeps[target] = fit.sweeps
        weights = {m: c for m, c in zip(monos, fit.coef)}
        weights[CONSTANT] = fit.intercept
        kept, dropped = prune(weights, threshold)
        dropped_all[target] = {monomial_name(m): v for m, v in dropped.items()}

        # Relaxed-LASSO refit: least squares on the surviving support only.
        support = [m for m in kept if m != CONSTANT]
        use_intercept = CONSTANT in kept
        cols = ([np.ones(len(y))] if use_intercept else [])
        cols += [eval_monomial(m, *inp.T) for m in support]
        refit: dict[Monomial, float] = {}
        if cols:
            A = np.column_stack(cols)
            sol, *_ = np.linalg.lstsq(A, y, rcond=None)
            idx = 0
            if use_intercept:
                refit[CONSTANT] = float(sol[0])
                idx = 1
            refit.update({m: float(sol[idx + i]) for i, m in enumerate(support)})

        for mono, val in refit.items():
            slot = W_SLOTS.get((target, mono))
            if slot is None:
                raise ValueError(
                    f"f{target}: surviving term {monomial_name(mono)} has no slot in the "
                    "matrix-vector controller; prune harder")
            w[slot - 1] = float(val)

        # fit-quality metrics on interior grid points
        yhat = np.zeros(len(y))
        for mono, val in refit.items():
            yhat += val * eval_monomial(mono, *inp.T)
        mask = _interior_mask(inp, spec, target)
        err = np.abs(yhat[mask] - y[mask])
        scale = np.max(np.abs(y))
        max_scaled[target] = float(np.max(err) / scale)
        max_pointwise[target] = float(np.max(err / np.abs(y[mask])))

    pruned_names = tuple(
        f"f{t}:{name}" for t in range(1, 6) for name in dropped_all.get(t, {})
    )
    coeffs = PolyCoeffs(w=tuple(w), pruned=pruned_names)
    report = FitReport(lam=lam, threshold=threshold, dropped=dropped_all, sweeps=sweeps,
                       max_scaled_err=max_scaled, max_pointwise_err=max_pointwise)
    return coeffs, report


# ---------------------------------------------------------------------------
# Coefficient CSV files: header `target,monomial,value`, one row per slot.

def save_coeffs(path: str | Path, coeffs: PolyCoeffs) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "monomial", "value"])
        for slot in range(1, 15):
            target, mono = SLOT_NAMES[slot]
            writer.writerow([target, mono, repr(coeffs[slot])])


def _coeffs_from_rows(rows) -> PolyCoeffs:
    w = [0.0] * 14
    seen = set()
    for target, mono, value in rows:
        t = int(target.lstrip("f"))
        slot = W_SLOTS.get((t, monomial_from_name(mono)))
        if slot is None:
            raise ValueError(f"no coefficient slot for ({target}, {mono})")
        if slot in seen:
            raise ValueError(f"duplicate coefficient for ({target}, {mono})")
        seen.add(slot)
        w[slot - 1] = float(value)
    if len(seen) != 14:
        missing = sorted(set(range(1, 15)) - seen)
        raise ValueError(f"coefficient file missing slots {missing}")
    return PolyCoeffs(w=tuple(w))


def load_coeffs(path: str | Path) -> PolyCoeffs:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["target", "monomial", "value"]:
            raise ValueError("expected header target,monomial,value")
        return _coeffs_from_rows(reader)


def load_table2_coeffs() -> PolyCoeffs:
    """Published per-degree coefficient values, for arithmetic spot checks."""
    text = resources.files("pamenc.data").joinpath("table2_poly.csv").read_text()
    rows = list(csv.reader(text.splitlines()))
    return _coeffs_from_rows(rows[1:])


def save_dataset(path: str | Path, data: dict[int, tuple[np.ndarray, np.ndarray]]) -> None:
    """Long-format CSV of the sampled training grids."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target", "theta", "Kp", "P1", "P2", "value"])
        for target in sorted(data):
            inp, vals = data[target]
            for row, v in zip(inp, vals):
                writer.writerow([f"f{target}", *(repr(x) for x in row), repr(float(v))])
