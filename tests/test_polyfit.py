"""LASSO engine, grids, pruning, and the coefficient pipeline."""

import math

import numpy as np
import pytest

from pamenc import (
    DEFAULT_PAM,
    FeatureSpec,
    PolyCoeffs,
    eval_fhat,
    fit_controller_coeffs,
    lasso_fit,
    load_coeffs,
    load_table2_coeffs,
    prune,
    rational_terms,
    sample_grid,
    save_coeffs,
)
from pamenc.polyfit import CONSTANT, soft_threshold


class TestSampleGrid:
    def test_row_counts(self):
        spec = FeatureSpec(density=2)
        data = sample_grid(spec, DEFAULT_PAM)
        assert len(data[2][1]) == 2          # theta only
        assert len(data[1][1]) == 4          # theta x kp
        assert len(data[3][1]) == 4          # theta x P1

    def test_targets_finite_and_match_rational_terms(self):
        data = sample_grid(FeatureSpec(density=5), DEFAULT_PAM)
        for target in range(1, 6):
            inp, vals = data[target]
            assert np.all(np.isfinite(vals))
            for (th, kp, p1, p2), v in zip(inp, vals):
                assert v == rational_terms(th, p1, p2, kp, DEFAULT_PAM)[target - 1]

    def test_values_match_rows_of_numpy_scalars_bit_for_bit(self):
        # the grid evaluates on Python floats; rows of numpy scalars give the same bits
        for target, (inp, vals) in sample_grid(FeatureSpec(), DEFAULT_PAM).items():
            ref = np.array([rational_terms(th, p1, p2, kp, DEFAULT_PAM)[target - 1]
                            for th, kp, p1, p2 in inp])
            assert isinstance(inp[0][0], np.float64)
            assert vals.tobytes() == ref.tobytes()

    def test_reproducible(self):
        a = sample_grid(FeatureSpec(density=7), DEFAULT_PAM)
        b = sample_grid(FeatureSpec(density=7), DEFAULT_PAM)
        for t in range(1, 6):
            assert np.array_equal(a[t][1], b[t][1])

    def test_box_cannot_touch_singularity(self):
        with pytest.raises(ValueError):
            FeatureSpec(theta_range=(-math.pi / 2, math.pi / 2))


def _residual_lasso(X, y, lam):
    """`lasso_fit` as coordinate descent on the residual: an O(n) dot product per update.

    The reference for the covariance updates: same standardization, coordinate
    order and stopping rule.
    """
    n, d = X.shape
    mu, sigma = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mu) / sigma
    ybar = y.mean()
    resid = y - ybar
    w = np.zeros(d)
    sweeps = 0
    while sweeps < 100_000:
        sweeps += 1
        max_delta = 0.0
        for j in range(d):
            xj = Xs[:, j]
            w_new = soft_threshold((xj @ resid) / n + w[j], lam)
            delta = w_new - w[j]
            if delta != 0.0:
                resid -= delta * xj
                w[j] = w_new
            max_delta = max(max_delta, abs(delta))
        if max_delta < 1e-10:
            break
    coef = w / sigma
    return coef, ybar - float(coef @ mu), sweeps


class TestLasso:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_covariance_updates_match_the_residual_form(self, seed):
        # correlated columns on unequal scales; lambda 0, mid-path and above lambda_max
        rng = np.random.default_rng(100 + seed)
        n, d = 441, 4
        Z = rng.normal(size=(n, d))
        X = (Z + 0.6 * Z[:, [0]]) * [1.0, 30.0, 0.01, 500.0]
        y = X @ rng.normal(size=d) + 2.0 + 0.1 * rng.normal(size=n)
        Xs = (X - X.mean(0)) / X.std(0)
        lam_max = float(np.max(np.abs(Xs.T @ (y - y.mean()))) / n)
        for lam in (0.0, 0.3 * lam_max, 1.01 * lam_max):
            fit = lasso_fit(X, y, lam)
            coef, intercept, sweeps = _residual_lasso(X, y, lam)
            assert fit.converged
            assert fit.coef * X.std(0) == pytest.approx(coef * X.std(0), rel=1e-8, abs=1e-10)
            assert fit.intercept == pytest.approx(intercept, rel=1e-8, abs=1e-10)
            assert abs(fit.sweeps - sweeps) <= 1
        assert np.all(fit.coef == 0.0) and sweeps == fit.sweeps == 1

    def test_lambda_zero_orthonormal(self):
        rng = np.random.default_rng(0)
        n = 400
        X = np.column_stack([np.sin(np.linspace(0, 7, n)), np.cos(np.linspace(0, 5, n))])
        w_true = np.array([2.0, -3.0])
        y = X @ w_true + 0.5
        fit = lasso_fit(X, y, 0.0)
        assert fit.converged
        assert fit.coef == pytest.approx(w_true, rel=1e-8)
        assert fit.intercept == pytest.approx(0.5, abs=1e-8)

    def test_lambda_zero_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 5)) @ np.diag([1.0, 3.0, 0.3, 2.0, 1.5])
        w_true = rng.normal(size=5)
        y = X @ w_true + 1.7 + 0.01 * rng.normal(size=300)
        fit = lasso_fit(X, y, 0.0)
        A = np.column_stack([np.ones(len(y)), X])
        ref = np.linalg.solve(A.T @ A, A.T @ y)
        assert fit.intercept == pytest.approx(ref[0], rel=1e-8, abs=1e-10)
        assert fit.coef == pytest.approx(ref[1:], rel=1e-8)

    def test_large_lambda_kills_everything(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + 4.0
        lam_max = float(np.max(np.abs(((X - X.mean(0)) / X.std(0)).T @ (y - y.mean()))) / len(y))
        fit = lasso_fit(X, y, lam_max * 1.01)
        assert np.all(fit.coef == 0.0)
        assert fit.intercept == pytest.approx(y.mean(), rel=1e-12)

    def test_scalar_soft_threshold_closed_form(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        y = 3.0 * x
        for lam in (0.0, 0.5, 1.0, 2.0):
            fit = lasso_fit(x[:, None], y, lam)
            xs = (x - x.mean()) / x.std()
            rho = float(xs @ (y - y.mean())) / len(y)
            want_std = soft_threshold(rho, lam)
            assert fit.coef[0] * x.std() == pytest.approx(want_std, rel=1e-9, abs=1e-12)

    def test_l1_norm_monotone_in_lambda(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(150, 6))
        y = X @ rng.normal(size=6) + rng.normal(size=150)
        lams = [0.0, 0.05, 0.2, 0.5, 1.0, 2.0]
        norms = [np.sum(np.abs(lasso_fit(X, y, lam).coef * X.std(0))) for lam in lams]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-9

    def test_constant_column_rejected(self):
        X = np.column_stack([np.ones(50), np.arange(50.0)])
        with pytest.raises(ValueError):
            lasso_fit(X, np.arange(50.0), 0.1)


class TestPrune:
    def test_equal_magnitudes_untouched(self):
        w = {(1, 0, 0, 0): 2.0, (0, 1, 0, 0): -2.0}
        kept, dropped = prune(w, 1e-3)
        assert kept == w and not dropped

    def test_published_small_term_ratio(self):
        # w_s = -5.76e-7 against the largest f3 coefficient w9 = 36.5
        w = {(0, 0, 1, 0): -5.12e-1, (1, 0, 2, 0): -5.76e-7, CONSTANT: 36.5}
        kept, dropped = prune(w, 1e-3)
        assert (1, 0, 2, 0) in dropped
        assert (0, 0, 1, 0) in kept and CONSTANT in kept

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        w = {(i, 0, 0, 0): v for i, v in enumerate(rng.normal(size=8))}
        once, _ = prune(w, 0.2)
        twice, dropped2 = prune(once, 0.2)
        assert twice == once and not dropped2

    def test_planted_tiny_coefficient(self):
        w = {(0, 0, 1, 0): 1.0, (1, 0, 2, 0): 1e-6}
        kept, dropped = prune(w, 1e-3)
        assert (1, 0, 2, 0) in dropped and (0, 0, 1, 0) in kept


class TestEvalFhat:
    def test_f5_constant_slot(self):
        c = PolyCoeffs(w=tuple(float(i) for i in range(1, 15)))
        assert eval_fhat(5, c, 0.0, 5.0, 400.0, 400.0) == 14.0

    def test_f2_constant_slot(self):
        c = PolyCoeffs(w=tuple(float(i) for i in range(1, 15)))
        assert eval_fhat(2, c, 0.0, 5.0, 400.0, 400.0) == 6.0

    def test_published_f1_arithmetic(self):
        c = load_table2_coeffs()
        got = eval_fhat(1, c, 0.1, 8.0, 400.0, 400.0)
        assert got == pytest.approx(-61.7 * 8.0 + (-1.89e-2) * 0.01 * 8.0 + (-1.58), rel=1e-12)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            eval_fhat(6, load_table2_coeffs(), 0, 0, 0, 0)


@pytest.fixture(scope="module")
def fitted():
    return fit_controller_coeffs(DEFAULT_PAM)


class TestPipeline:

    def test_approximation_gates(self, fitted):
        _, report = fitted
        for t in range(1, 6):
            assert report.max_scaled_err[t] <= 0.05, f"f{t} misses the 5% gate"
        assert report.max_pointwise_err[5] <= 0.02

    def test_small_term_dropped(self, fitted):
        _, report = fitted
        assert "theta*P1^2" in report.dropped[3]

    def test_shipped_fit_is_pinned(self, fitted):
        # Phi and every encrypted session rest on these bits; the LASSO's own values
        # decide only the support, which the least-squares refit then fits
        coeffs, report = fitted
        assert [w.hex() for w in coeffs.w] == [
            "0x1.0d290cb1f1f44p+4", "0x1.f80ebdb03194fp+3", "0x1.2ba5b6cfa66b5p-44",
            "-0x1.6b8520d55c666p+4", "0x1.e6b030c55032cp+1", "0x1.c252906084939p+2",
            "-0x1.a1cac083126e8p-5", "-0x1.3656bf5ac586dp-6", "0x1.3ffffffffff52p+1",
            "-0x1.a1cac083126e8p-5", "0x1.3656bf5ac5875p-6", "0x1.3ffffffffff5cp+1",
            "-0x1.e6b030c5501a4p+2", "-0x1.c252906084949p+3",
        ]
        assert report.sweeps == {1: 11, 2: 2, 3: 341, 4: 2, 5: 2}
        assert coeffs.pruned == ("f3:theta*P1^2",)
        assert {t: sorted(d) for t, d in report.dropped.items()} == {
            1: [], 2: [], 3: ["theta*P1^2"], 4: [], 5: []}

    def test_eval_matches_rational_on_operating_strip(self, fitted):
        coeffs, _ = fitted
        rng = np.random.default_rng(6)
        for _ in range(200):
            th = rng.uniform(-0.26, 0.26)
            kp = rng.uniform(4.0, 9.0)
            p1, p2 = rng.uniform(250, 700, 2)
            f = rational_terms(th, p1, p2, kp, DEFAULT_PAM)
            scales = (160.0, 25.0, 40.0, 40.0, 16.0)
            for t in range(1, 6):
                fh = eval_fhat(t, coeffs, th, kp, p1, p2)
                assert abs(fh - f[t - 1]) <= 0.05 * scales[t - 1]

    def test_coeff_roundtrip(self, fitted, tmp_path):
        coeffs, _ = fitted
        path = tmp_path / "coeffs.csv"
        save_coeffs(path, coeffs)
        again = load_coeffs(path)
        assert again.w == coeffs.w

    def test_load_rejects_missing_slots(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("target,monomial,value\nf1,Kp,1.0\n")
        with pytest.raises(ValueError, match="missing"):
            load_coeffs(path)

    def test_table2_file_complete(self):
        c = load_table2_coeffs()
        assert c[1] == -61.7 and c[14] == -3.92e-3 and c[9] == 36.5
