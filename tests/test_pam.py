"""Geometry, force/stiffness maps, and the surrogate plant step."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamenc import (
    DEFAULT_PAM,
    DEFAULT_PLANT,
    MuscleCoeffs,
    PamParams,
    PlantState,
    SurrogatePlantParams,
    alpha,
    contraction_force,
    estimate_force,
    joint_stiffness,
    joint_torque,
    load_table2_muscle,
    measured_stiffness,
    pam_lengths,
    plant_step,
    with_load_mass,
)
from pamenc.params import PRESSURE_MAX, PRESSURE_MIN, THETA_LIMIT


def sym_params(r=0.030, L0=0.170):
    fc = MuscleCoeffs(a1=7.05e-3, a2=-1.02e-4, b1=-5.57e2, b2=72.86)
    return PamParams(r=r, L0=L0, force_coeffs=(fc, fc), est_coeffs=(fc, fc))


class TestLengths:
    def test_zero_angle(self):
        l1, l2 = pam_lengths(0.0, sym_params())
        assert l1 == 0.170 and l2 == 0.170

    @given(st.floats(-math.pi / 2 * 0.99, math.pi / 2 * 0.99))
    def test_sum_conserved(self, theta):
        p = sym_params()
        l1, l2 = pam_lengths(theta, p)
        assert l1 + l2 == pytest.approx(2 * p.L0, rel=1e-15)

    def test_25_degrees(self):
        # frozen from the independent high-precision evaluation of L0 -/+ r sin(theta)
        l1, l2 = pam_lengths(math.radians(25.0), sym_params())
        assert l1 == pytest.approx(0.170 - 0.030 * math.sin(math.radians(25.0)), abs=1e-15)
        assert l1 == pytest.approx(0.15732, abs=5e-6)
        assert l2 == pytest.approx(0.18268, abs=5e-6)

    def test_domain_error(self):
        # r < L0 makes lengths positive for all theta, so the guard is only
        # reachable by bypassing parameter validation
        p = sym_params()
        object.__setattr__(p, "r", 0.5)
        with pytest.raises(ValueError):
            pam_lengths(math.radians(89.0), p)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            PamParams(r=0.2, L0=0.17, force_coeffs=sym_params().force_coeffs,
                      est_coeffs=sym_params().est_coeffs)


class TestForce:
    def test_pressure_term_vanishes(self):
        p = sym_params()
        f = contraction_force(0.16, 0.0, 0, p)
        assert f == pytest.approx(-5.57e2 * 0.16 + 72.86, rel=1e-12)

    def test_published_values(self):
        # raw published coefficients, l = 0.170 m, P = 500
        p = load_table2_muscle()
        f = contraction_force(0.170, 500.0, 0, p)
        expected = (7.05e-3 * 0.170 - 1.02e-4) * 500.0 + (-5.57e2 * 0.170 + 72.86)
        assert f == pytest.approx(expected, rel=1e-12)

    @given(st.floats(0.0, 800.0), st.floats(0.0, 800.0))
    def test_affine_in_pressure(self, p1, p2):
        p = sym_params()
        lhs = contraction_force(0.17, p1 + p2, 0, p) - contraction_force(0.17, p2, 0, p)
        rhs = contraction_force(0.17, p1, 0, p) - contraction_force(0.17, 0.0, 0, p)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestAlpha:
    def test_zero_pressure(self):
        assert alpha(0.0, 0, sym_params()) == 72.86

    def test_published_value(self):
        got = alpha(500.0, 0, load_table2_muscle())
        assert got == pytest.approx(-1.02e-4 * 500.0 + 72.86, rel=1e-12)
        assert got == pytest.approx(72.809, abs=1e-9)

    @given(st.floats(200.0, 750.0), st.floats(-50.0, 50.0))
    def test_affine(self, p_, delta):
        params = sym_params()
        diff = alpha(p_ + delta, 0, params) - alpha(p_, 0, params)
        assert diff == pytest.approx(-1.02e-4 * delta, abs=1e-9)


class TestTorque:
    def test_equal_forces(self):
        assert joint_torque(0.3, 120.0, 120.0, sym_params()) == 0.0

    def test_right_angle(self):
        assert joint_torque(math.pi / 2, 300.0, 10.0, sym_params()) == pytest.approx(0.0, abs=1e-13)

    def test_arithmetic(self):
        got = joint_torque(0.1, 230.0, 130.0, sym_params())
        assert got == pytest.approx(0.030 * math.cos(0.1) * 100.0, rel=1e-14)


class TestStiffness:
    def test_zero_angle_reduction(self):
        p = sym_params()
        F1, F2, P1, P2 = 300.0, 250.0, 500.0, 420.0
        got = joint_stiffness(0.0, F1, F2, P1, P2, p)
        expected = p.r**2 * ((F1 - alpha(P1, 0, p)) + (F2 - alpha(P2, 1, p))) / p.L0
        assert got == pytest.approx(expected, rel=1e-13)

    def test_vanishes_at_alpha(self):
        p = sym_params()
        a1 = alpha(500.0, 0, p)
        a2 = alpha(400.0, 1, p)
        assert joint_stiffness(0.0, a1, a2, 500.0, 400.0, p) == pytest.approx(0.0, abs=1e-12)

    @given(st.floats(-0.4, 0.4), st.floats(0.0, 600.0), st.floats(0.0, 600.0),
           st.floats(200.0, 750.0), st.floats(200.0, 750.0))
    def test_against_direct_reevaluation(self, theta, F1, F2, P1, P2):
        p = sym_params()
        got = joint_stiffness(theta, F1, F2, P1, P2, p)
        # independent straight-line re-evaluation
        s, c = math.sin(theta), math.cos(theta)
        l1 = p.L0 - p.r * s
        l2 = p.L0 + p.r * s
        a1 = -1.02e-4 * P1 + 72.86
        a2 = -1.02e-4 * P2 + 72.86
        want = p.r * s * (F1 - F2) + p.r * p.r * c * c * ((F1 - a1) / l1 + (F2 - a2) / l2)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_swap_symmetry_at_zero(self):
        p = sym_params()
        k_a = joint_stiffness(0.0, 310.0, 260.0, 520.0, 430.0, p)
        k_b = joint_stiffness(0.0, 260.0, 310.0, 430.0, 520.0, p)
        assert k_a == pytest.approx(k_b, rel=1e-13)

    @pytest.mark.parametrize("which", ["default", "two-maps", "table2"])
    def test_measured_stiffness_is_the_helpers_bit_for_bit(self, which):
        # written out on locals, it rounds as joint_stiffness of the contraction_forces at
        # the pam_lengths; the pressures include both clamps and a noisy reading past each
        fc1 = DEFAULT_PAM.force_coeffs[0]
        fc2 = MuscleCoeffs(a1=fc1.a1 * 1.1, a2=fc1.a2 * 0.9, b1=fc1.b1 * 1.05, b2=fc1.b2 * 0.95)
        pp = {"default": DEFAULT_PAM,
              "two-maps": PamParams(r=DEFAULT_PAM.r, L0=DEFAULT_PAM.L0, force_coeffs=(fc1, fc2),
                                    est_coeffs=DEFAULT_PAM.est_coeffs),
              "table2": load_table2_muscle()}[which]
        thetas = [-THETA_LIMIT, -0.2, -1e-9, -0.0, 0.0, 1e-9, 0.05, 0.2, THETA_LIMIT]
        pressures = [PRESSURE_MIN - 0.3, PRESSURE_MIN, 333.3, 475.0, PRESSURE_MAX,
                     PRESSURE_MAX + 0.3]
        for theta in thetas:
            l1, l2 = pam_lengths(theta, pp)
            for P1 in pressures:
                for P2 in pressures:
                    want = joint_stiffness(theta, contraction_force(l1, P1, 0, pp),
                                           contraction_force(l2, P2, 1, pp), P1, P2, pp)
                    got = measured_stiffness(PlantState(theta, 0.3, P1, P2), pp)
                    assert got.hex() == want.hex(), (theta, P1, P2)

    def test_measured_stiffness_nonpositive_length_raises(self):
        pp = sym_params()
        object.__setattr__(pp, "r", 2.0 * pp.L0)  # past PamParams' r < L0 check
        for theta in (0.6, -0.6):
            with pytest.raises(ValueError, match="nonpositive muscle length"):
                measured_stiffness(PlantState(theta, 0.0, 400.0, 400.0), pp)


class TestEstimator:
    def test_zero_angle(self):
        p = load_table2_muscle()
        got = estimate_force(0.0, 450.0, 0, p)
        assert got == pytest.approx(1.45e-4 * 450.0 + (-19.01), rel=1e-12)

    def test_published_values(self):
        p = load_table2_muscle()
        got = estimate_force(0.1, 400.0, 0, p)
        expected = (-2.55e-4 * 0.1 + 1.45e-4) * 400.0 + (20.14 * 0.1 - 19.01)
        assert got == pytest.approx(expected, rel=1e-12)

    @given(st.floats(-0.4, 0.4), st.floats(200.0, 750.0))
    def test_bilinear_structure(self, theta, press):
        p = DEFAULT_PAM
        base = estimate_force(theta, press, 0, p)
        dth = estimate_force(theta + 0.01, press, 0, p) - base
        dth2 = estimate_force(theta + 0.02, press, 0, p) - estimate_force(theta + 0.01, press, 0, p)
        assert dth == pytest.approx(dth2, rel=1e-6, abs=1e-8)


class TestPlantStep:
    def test_symmetric_fixed_point(self):
        state = PlantState(theta=0.0, theta_dot=0.0, P1=475.0, P2=475.0)
        u = 5.0  # commands 475 kPa with the default valve map
        nxt = plant_step(state, u, u, DEFAULT_PLANT, DEFAULT_PAM, 0.002)
        assert nxt.theta == 0.0 and nxt.theta_dot == 0.0
        assert nxt.P1 == pytest.approx(475.0, abs=1e-9)

    def test_infinite_valve_tau_limit(self):
        from dataclasses import replace
        slow = replace(DEFAULT_PLANT, valve_tau=1e12)
        state = PlantState(theta=0.01, theta_dot=0.0, P1=430.0, P2=470.0)
        nxt = plant_step(state, 9.0, 1.0, slow, DEFAULT_PAM, 0.002)
        assert nxt.P1 == pytest.approx(430.0, abs=1e-6)
        assert nxt.P2 == pytest.approx(470.0, abs=1e-6)

    def test_against_hand_rolled_euler(self):
        sp = SurrogatePlantParams(J=4e-3, c_damp=0.08, valve_tau=0.5, valve_offset=210.0,
                                  valve_slope=52.0, load_torque=0.3, substeps=1)
        pp = DEFAULT_PAM
        state = PlantState(theta=0.05, theta_dot=-0.2, P1=460.0, P2=505.0)
        u1, u2, dt = 6.2, 3.7, 0.004
        got = plant_step(state, u1, u2, sp, pp, dt)

        # independent straight-line reimplementation
        P1 = state.P1 + dt / sp.valve_tau * ((210.0 + 52.0 * u1) - state.P1)
        P2 = state.P2 + dt / sp.valve_tau * ((210.0 + 52.0 * u2) - state.P2)
        P1 = min(max(P1, PRESSURE_MIN), PRESSURE_MAX)
        P2 = min(max(P2, PRESSURE_MIN), PRESSURE_MAX)
        s = math.sin(state.theta)
        l1, l2 = pp.L0 - pp.r * s, pp.L0 + pp.r * s
        fc = pp.force_coeffs[0]
        F1 = (fc.a1 * l1 + fc.a2) * P1 + fc.b1 * l1 + fc.b2
        F2 = (fc.a1 * l2 + fc.a2) * P2 + fc.b1 * l2 + fc.b2
        tau = pp.r * math.cos(state.theta) * (F1 - F2)
        tdd = (tau - sp.c_damp * state.theta_dot - sp.load_torque) / sp.J
        td = state.theta_dot + dt * tdd
        th = state.theta + dt * td
        assert got.P1 == pytest.approx(P1, rel=1e-12)
        assert got.P2 == pytest.approx(P2, rel=1e-12)
        assert got.theta_dot == pytest.approx(td, rel=1e-12)
        assert got.theta == pytest.approx(th, rel=1e-12)

    @settings(max_examples=30)
    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.integers(1, 200))
    def test_clamping_invariant(self, u1, u2, n):
        state = PlantState(theta=0.2, theta_dot=3.0, P1=740.0, P2=210.0)
        for _ in range(n):
            state = plant_step(state, u1, u2, DEFAULT_PLANT, DEFAULT_PAM, 0.002)
        assert PRESSURE_MIN <= state.P1 <= PRESSURE_MAX
        assert PRESSURE_MIN <= state.P2 <= PRESSURE_MAX
        assert abs(state.theta) <= THETA_LIMIT

    def test_pressure_monotone_convergence(self):
        state = PlantState(theta=0.0, theta_dot=0.0, P1=300.0, P2=300.0)
        target = DEFAULT_PLANT.valve_map(7.0)
        gaps = []
        for _ in range(400):
            state = plant_step(state, 7.0, 7.0, DEFAULT_PLANT, DEFAULT_PAM, 0.002)
            gaps.append(abs(target - state.P1))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]


def _bits(state):
    return tuple(float.hex(x) for x in tuple(state))


class TestPlantSubsteps:
    """plant_step(..., n) integrates n substeps under one held command in one call."""

    LOADED = with_load_mass(DEFAULT_PLANT, 1.5, DEFAULT_PAM)

    # (start, u1, u2, plant, n, a substep state the case must reach)
    CASES = {
        "free-motion": (PlantState(0.05, -0.2, 460.0, 505.0), 6.2, 3.7, DEFAULT_PLANT, 10,
                        lambda s: abs(s.theta) < THETA_LIMIT),
        "upper-stop": (PlantState(0.3, 1.0, 600.0, 300.0), 10.0, 0.0, DEFAULT_PLANT, 200,
                       lambda s: s.theta == THETA_LIMIT and s.theta_dot == 0.0),
        "lower-stop": (PlantState(-0.3, -1.0, 300.0, 600.0), 0.0, 10.0, DEFAULT_PLANT, 200,
                       lambda s: s.theta == -THETA_LIMIT and s.theta_dot == 0.0),
        "pressure-clamps": (PlantState(0.0, 0.0, 745.0, 205.0), 12.0, -2.0, DEFAULT_PLANT, 50,
                            lambda s: s.P1 == PRESSURE_MAX and s.P2 == PRESSURE_MIN),
        "load-torque": (PlantState(0.1, 0.0, 475.0, 475.0), 5.0, 5.0, LOADED, 10,
                        lambda s: s.theta_dot < 0.0),
        "one-substep": (PlantState(0.05, -0.2, 460.0, 505.0), 6.2, 3.7, LOADED, 1,
                        lambda s: True),
        "warm-up-length": (PlantState(), 5.5, 5.5, DEFAULT_PLANT, 5000,
                           lambda s: s.P1 > PRESSURE_MIN),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_chained_single_substeps_bit_for_bit(self, case):
        start, u1, u2, sp, n, reached = self.CASES[case]
        chain = [start]
        for _ in range(n):
            chain.append(plant_step(chain[-1], u1, u2, sp, DEFAULT_PAM, 0.002))
        assert any(reached(s) for s in chain[1:])
        assert _bits(plant_step(start, u1, u2, sp, DEFAULT_PAM, 0.002, n)) == _bits(chain[-1])

    @pytest.mark.parametrize("case", CASES)
    def test_substep_is_the_helpers_bit_for_bit(self, case):
        # the substep written out on locals rounds as pam_lengths, contraction_force and
        # joint_torque do; two muscles with different maps catch a swapped coefficient
        start, u1, u2, sp, n, _ = self.CASES[case]
        fc1 = DEFAULT_PAM.force_coeffs[0]
        fc2 = MuscleCoeffs(a1=fc1.a1 * 1.1, a2=fc1.a2 * 0.9, b1=fc1.b1 * 1.05, b2=fc1.b2 * 0.95)
        pp = PamParams(r=DEFAULT_PAM.r, L0=DEFAULT_PAM.L0, force_coeffs=(fc1, fc2),
                       est_coeffs=DEFAULT_PAM.est_coeffs)
        a, dt = 0.002 / sp.valve_tau, 0.002
        target1, target2 = sp.valve_map(u1), sp.valve_map(u2)
        theta, theta_dot, P1, P2 = start
        for _ in range(n):
            P1 = min(max(P1 + a * (target1 - P1), PRESSURE_MIN), PRESSURE_MAX)
            P2 = min(max(P2 + a * (target2 - P2), PRESSURE_MIN), PRESSURE_MAX)
            l1, l2 = pam_lengths(theta, pp)
            tau = joint_torque(theta, contraction_force(l1, P1, 0, pp),
                               contraction_force(l2, P2, 1, pp), pp)
            theta_dot = theta_dot + dt * ((tau - sp.c_damp * theta_dot - sp.load_torque) / sp.J)
            theta = theta + dt * theta_dot
            if abs(theta) >= THETA_LIMIT:
                theta, theta_dot = math.copysign(THETA_LIMIT, theta), 0.0
        want = PlantState(theta, theta_dot, P1, P2)
        assert _bits(plant_step(start, u1, u2, sp, pp, dt, n)) == _bits(want)

    @pytest.mark.parametrize("theta", [0.6, -0.6], ids=["l1", "l2"])
    @pytest.mark.parametrize("n", [1, 10])
    def test_nonpositive_muscle_length_raises(self, theta, n):
        pp = sym_params()
        object.__setattr__(pp, "r", 2.0 * pp.L0)  # past PamParams' r < L0 check
        with pytest.raises(ValueError, match="nonpositive muscle length"):
            plant_step(PlantState(theta=theta), 5.0, 5.0, DEFAULT_PLANT, pp, 0.002, n)

    def test_zero_substeps_keep_the_state(self):
        start = PlantState(0.05, -0.2, 460.0, 505.0)
        assert plant_step(start, 9.0, 1.0, DEFAULT_PLANT, DEFAULT_PAM, 0.002, 0) == start
