"""Optical-bench physics: mode mixing, readout, loss and finite statistics."""

import math

import numpy as np
import pytest

from gaussbench import (
    SCHEME2_PLAN,
    BenchSetting,
    DetectorModel,
    ModeCovariance,
    UnphysicalMeasurementError,
    invert_loss,
    observe_mode1,
    quad_to_mode,
    random_state,
    standard_form_prep,
    tmsv_state,
    vacuum_state,
)
from matrix_oracle import (
    apply_loss,
    block1,
    block2,
    bogoliubov,
    mode_block_to_quad,
    output_mode1_covariance,
    output_mode2_covariance,
    quadrature_variance,
    transform_covariance,
)

NUM_STDS = 4  # statistical assertions allow this many standard errors


def vacuum_mode():
    return quad_to_mode(vacuum_state())


class TestBogoliubov:
    def test_identity_at_zero_angle(self):
        u = bogoliubov(BenchSetting(0.0, 0.0))
        np.testing.assert_allclose(u, np.eye(4), atol=1e-15)

    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4, math.pi / 2])
    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
    def test_unitarity(self, theta, phi):
        u = bogoliubov(BenchSetting(theta, phi))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-14)

    def test_full_reflection_swaps_the_modes(self):
        # cos(pi/2) = 0 kills the diagonal blocks, leaving pure exchange.
        u = bogoliubov(BenchSetting(math.pi / 2, 0.0))
        np.testing.assert_allclose(u[:2, :2], np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(u[:2, 2:], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(u[2:, :2], -np.eye(2), atol=1e-15)

    def test_rejects_out_of_range_angles(self):
        with pytest.raises(ValueError):
            BenchSetting(-0.1, 0.0)
        with pytest.raises(ValueError):
            BenchSetting(2.0, 0.0)  # theta beyond pi/2
        with pytest.raises(ValueError):
            BenchSetting(0.3, 4.0)  # phi beyond pi


class TestOutputCovariance:
    def test_literal_expression_matches_full_conjugation(self):
        # output_mode1_covariance is written out term by term on purpose;
        # it must agree with slicing U+ V U for every setting.
        v = quad_to_mode(random_state(17, purity="mixed", symmetry="general"))
        for theta in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
            for phi in (-2.0, 0.0, math.pi / 2, math.pi):
                setting = BenchSetting(theta, phi)
                full = transform_covariance(v, setting)[:2, :2]
                np.testing.assert_allclose(
                    output_mode1_covariance(v, setting), full, atol=1e-13
                )

    def test_full_transmission_returns_mode_1(self):
        v = quad_to_mode(random_state(21))
        block = output_mode1_covariance(v, BenchSetting(0.0, 0.0))
        np.testing.assert_allclose(block, block1(v), atol=1e-14)

    def test_full_reflection_returns_mode_2(self):
        v = quad_to_mode(random_state(22))
        block = output_mode1_covariance(v, BenchSetting(math.pi / 2, 0.0))
        np.testing.assert_allclose(block, block2(v), atol=1e-14)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2])
    def test_phase_is_irrelevant_at_the_extremes(self, theta):
        v = quad_to_mode(random_state(23, purity="mixed", symmetry="general"))
        n_ref = output_mode1_covariance(v, BenchSetting(theta, 0.0))[0, 0].real
        for phi in (-1.0, 0.5, math.pi):
            n = output_mode1_covariance(v, BenchSetting(theta, phi))[0, 0].real
            assert n == pytest.approx(n_ref, rel=1e-13)

    def test_photon_number_is_conserved(self):
        # The mixer is passive: N1' + N2' = N1 + N2 at every setting.
        v = quad_to_mode(random_state(24, purity="mixed", symmetry="general"))
        total = v.n1 + v.n2
        for theta in (0.1, 0.7, 1.4):
            for phi in (0.0, 2.0):
                setting = BenchSetting(theta, phi)
                n1p = output_mode1_covariance(v, setting)[0, 0].real
                n2p = output_mode2_covariance(v, setting)[0, 0].real
                assert n1p + n2p == pytest.approx(total, rel=1e-12)

    def test_vacuum_is_a_fixed_point(self):
        v = vacuum_mode()
        for theta in (0.0, 0.6, math.pi / 4):
            block = output_mode1_covariance(v, BenchSetting(theta, 1.0))
            np.testing.assert_allclose(block, 0.5 * np.eye(2), atol=1e-14)

    def test_tmsv_occupation_at_full_transmission(self):
        r = 0.7
        v = quad_to_mode(tmsv_state(r))
        block = output_mode1_covariance(v, BenchSetting(0.0, 0.0))
        assert block[0, 0].real == pytest.approx(math.cosh(2 * r) / 2, rel=1e-12)

    def test_tmsv_at_balanced_splitter_matches_full_conjugation(self):
        v = quad_to_mode(tmsv_state(0.5))
        setting = BenchSetting(math.pi / 4, 0.0)
        full = transform_covariance(v, setting)[:2, :2]
        np.testing.assert_allclose(output_mode1_covariance(v, setting), full, atol=1e-13)


class TestQuadratureBlock:
    def test_vacuum_variances_are_one(self):
        quad = mode_block_to_quad(0.5 * np.eye(2, dtype=complex))
        for angle in (0.0, 0.7, math.pi / 2):
            assert quadrature_variance(quad, angle) == pytest.approx(1.0, abs=1e-14)

    def test_three_angles_recover_the_block(self):
        # v0, v90 give the diagonal; v45 - (v0 + v90)/2 gives the off term.
        v = quad_to_mode(random_state(31, purity="mixed", symmetry="general"))
        quad = mode_block_to_quad(output_mode1_covariance(v, BenchSetting(0.4, 1.1)))
        v0 = quadrature_variance(quad, 0.0)
        v90 = quadrature_variance(quad, math.pi / 2)
        v45 = quadrature_variance(quad, math.pi / 4)
        rebuilt = np.array(
            [[v0, v45 - (v0 + v90) / 2], [v45 - (v0 + v90) / 2, v90]]
        )
        np.testing.assert_allclose(rebuilt, quad, atol=1e-12)


class TestLossModel:
    def test_unit_efficiency_is_identity(self):
        block = np.array([[1.3, 0.2], [0.2, 0.9]], dtype=complex)
        np.testing.assert_allclose(apply_loss(block, 1.0), block, atol=1e-15)

    def test_vacuum_is_invariant_under_loss(self):
        block = 0.5 * np.eye(2, dtype=complex)
        np.testing.assert_allclose(apply_loss(block, 0.3), block, atol=1e-15)

    @pytest.mark.parametrize("eta", [0.1, 0.35, 0.5, 0.77, 0.9, 1.0])
    def test_homodyne_inversion_round_trip(self, eta):
        # A squeezed mode with principal quadrature variances v_min, v_max
        # has n = (v_min + v_max)/4 and j = v_min v_max / 4; the detector
        # reads each variance as eta v + 1 - eta.
        v_min, v_max = 0.62, 2.4
        meas_min = eta * v_min + (1 - eta)
        meas_max = eta * v_max + (1 - eta)
        n, j = invert_loss((meas_min + meas_max) / 4, meas_min * meas_max / 4, eta)
        assert n == pytest.approx((v_min + v_max) / 4, rel=1e-12)
        assert j == pytest.approx(v_min * v_max / 4, rel=1e-12)

    def test_vacuum_inversion_gives_half_quarter(self):
        n, j = invert_loss(0.5, 0.25, 0.5)
        assert n == pytest.approx(0.5, abs=1e-14)
        assert j == pytest.approx(0.25, abs=1e-14)

    def test_below_floor_measurement_is_rejected(self):
        # At theta = pi/4 this input gives an isotropic output mode with
        # quadrature variance 1 - 2 ms, read at eta = 0.4 as 1 - 0.8 ms.
        # ms = 0.5 puts the corrected variance at 0, which passes; ms =
        # 0.5625 reads 0.55, below the floor 1 - eta = 0.6.
        setting = BenchSetting(math.pi / 4, 0.0)
        det = DetectorModel(kind="lossy-homodyne", eta=0.4)
        at_floor = observe_mode1(ModeCovariance(0.5, 0.5, ms=0.5), setting, det)
        assert at_floor.n_prime == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(UnphysicalMeasurementError):
            observe_mode1(ModeCovariance(0.5, 0.5, ms=0.5625), setting, det)

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            invert_loss(0.5, 0.25, 0.0)
        with pytest.raises(ValueError):
            apply_loss(np.eye(2), 1.5)


def homodyne(shots, eta=1.0):
    return DetectorModel(kind="lossy-homodyne", eta=eta, shots=shots)


class TestSampling:
    def test_estimates_converge_to_truth(self):
        r = 0.5
        v = quad_to_mode(tmsv_state(r))
        obs = observe_mode1(v, BenchSetting(0.0, 0.0), homodyne(200000), seed=99)
        # one arm of a TMSV is thermal with nu = cosh 2r
        assert abs(obs.n_prime - math.cosh(2 * r) / 2) < NUM_STDS * obs.n_stderr
        assert abs(obs.j_prime - math.cosh(2 * r) ** 2 / 4) < NUM_STDS * obs.j_stderr

    def test_reported_error_shrinks_with_shots(self):
        setting = BenchSetting(0.0, 0.0)
        small = observe_mode1(vacuum_mode(), setting, homodyne(1000), seed=1)
        large = observe_mode1(vacuum_mode(), setting, homodyne(100000), seed=1)
        assert large.n_stderr < small.n_stderr / 5
        assert large.j_stderr < small.j_stderr / 5

    def test_estimator_is_unbiased(self):
        # Average of many independent runs should sit on the truth much
        # more tightly than any single run's error bar.
        setting = BenchSetting(0.0, 0.0)
        estimates, errors = [], []
        for rep in range(100):
            obs = observe_mode1(vacuum_mode(), setting, homodyne(2000), seed=500 + rep)
            estimates.append(obs.n_prime)
            errors.append(obs.n_stderr)
        pooled_se = np.mean(errors) / math.sqrt(len(estimates))
        assert abs(np.mean(estimates) - 0.5) < 3 * pooled_se

    @pytest.mark.parametrize("state", ["tmsv", "random"])
    def test_pulls_are_calibrated(self, state):
        # Each reading's (value - exact)/stderr over 1000 runs has mean 0 and
        # std 1, at every scheme-2 setting of the state and of its standard
        # form.  A batch of 1000 copies of the state is 1000 independent runs.
        v = quad_to_mode(tmsv_state(0.5) if state == "tmsv" else random_state(3))
        det = homodyne(5000, eta=0.8)
        for t, target in enumerate((v, standard_form_prep(v).vt)):
            fields = ("n1", "n2", "m1", "m2", "ms", "mc")
            copies = ModeCovariance(**{f: np.full(1000, getattr(target, f)) for f in fields})
            for index, entry in enumerate(SCHEME2_PLAN):
                exact = observe_mode1(target, entry.setting)
                runs = observe_mode1(copies, entry.setting, det, seed=[t, index])
                for field in ("n", "j"):
                    want = getattr(exact, f"{field}_prime")
                    got = getattr(runs, f"{field}_prime")
                    pulls = (got - want) / getattr(runs, f"{field}_stderr")
                    assert 0.9 <= np.std(pulls) <= 1.1, (field, entry.setting)
                    assert abs(np.mean(pulls)) <= 0.15, (field, entry.setting)

    def test_same_seed_reproduces(self):
        # A weakly squeezed mixed output mode: none of 1000 seeds puts the
        # 500-shot estimate below the vacuum floor.
        v = quad_to_mode(tmsv_state(0.3))
        det = homodyne(500, eta=0.8)
        a = observe_mode1(v, BenchSetting(0.3, 0.2), det, seed=7)
        b = observe_mode1(v, BenchSetting(0.3, 0.2), det, seed=7)
        assert a == b

    def test_too_few_shots_rejected(self):
        with pytest.raises(ValueError):
            homodyne(1)


class TestObserveMode1:
    @pytest.mark.parametrize("shots", [None, 1000], ids=["exact", "finite-shot"])
    def test_one_state_readings_are_numpy_scalars(self, shots):
        # So that a reconstruction from them obeys np.errstate as a batch's does.
        det = DetectorModel(kind="lossy-homodyne", eta=0.9, shots=shots)
        obs = observe_mode1(quad_to_mode(tmsv_state(0.5)), BenchSetting(0.3, 0.1), det, seed=3)
        fields = (obs.n_prime, obs.j_prime, obs.purity)
        fields += () if shots is None else (obs.n_stderr, obs.j_stderr)
        assert all(type(x) is np.float64 for x in fields)

    def test_vacuum_observation(self):
        obs = observe_mode1(vacuum_mode(), BenchSetting(0.3, 0.1))
        assert obs.n_prime == pytest.approx(0.5, abs=1e-13)
        assert obs.j_prime == pytest.approx(0.25, abs=1e-13)
        assert obs.purity == pytest.approx(1.0, abs=1e-12)
        assert obs.purity / math.pi == pytest.approx(1 / math.pi, abs=1e-12)  # W(0)
        assert obs.n_stderr is None and obs.j_stderr is None

    def test_tmsv_at_full_transmission(self):
        r = 0.5
        obs = observe_mode1(quad_to_mode(tmsv_state(r)), BenchSetting(0.0, 0.0))
        assert obs.n_prime == pytest.approx(math.cosh(2 * r) / 2, rel=1e-12)
        # one arm of a TMSV is thermal with nu = cosh 2r
        assert obs.j_prime == pytest.approx(math.cosh(2 * r) ** 2 / 4, rel=1e-12)
        assert obs.purity == pytest.approx(1 / math.cosh(2 * r), rel=1e-12)

    @pytest.mark.parametrize("eta", [0.4, 0.7, 1.0])
    def test_exact_lossy_homodyne_equals_ideal(self, eta):
        # With shots=None the homodyne chain (loss, three variances,
        # inversion) must be algebraically transparent.
        v = quad_to_mode(random_state(55, purity="mixed", symmetry="general"))
        setting = BenchSetting(0.6, -0.9)
        ideal = observe_mode1(v, setting)
        lossy = observe_mode1(
            v, setting, DetectorModel(kind="lossy-homodyne", eta=eta)
        )
        assert lossy.n_prime == pytest.approx(ideal.n_prime, rel=1e-12)
        assert lossy.j_prime == pytest.approx(ideal.j_prime, rel=1e-12)

    def test_sampled_homodyne_stays_within_error_bars(self):
        v = quad_to_mode(tmsv_state(0.4))
        setting = BenchSetting(math.pi / 4, 0.0)
        ideal = observe_mode1(v, setting)
        det = DetectorModel(kind="lossy-homodyne", eta=0.8, shots=50000)
        noisy = observe_mode1(v, setting, det, seed=2024)
        assert noisy.n_stderr is not None and noisy.j_stderr is not None
        assert abs(noisy.n_prime - ideal.n_prime) < NUM_STDS * noisy.n_stderr
        assert abs(noisy.j_prime - ideal.j_prime) < NUM_STDS * noisy.j_stderr

    def test_sampled_photocount_stays_within_error_bars(self):
        v = quad_to_mode(tmsv_state(0.4))
        setting = BenchSetting(math.pi / 4, math.pi / 2)
        ideal = observe_mode1(v, setting)
        det = DetectorModel(kind="lossy-photocount", eta=1.0, shots=50000)
        noisy = observe_mode1(v, setting, det, seed=77)
        assert abs(noisy.n_prime - ideal.n_prime) < NUM_STDS * noisy.n_stderr
        assert abs(noisy.j_prime - ideal.j_prime) < NUM_STDS * noisy.j_stderr

    def test_sampled_lossy_photocount_reads_the_unattenuated_mode(self):
        v = quad_to_mode(tmsv_state(0.4))
        setting = BenchSetting(math.pi / 4, math.pi / 2)
        ideal = observe_mode1(v, setting)
        det = DetectorModel(kind="lossy-photocount", eta=0.8, shots=50000)
        for seed in range(20):
            noisy = observe_mode1(v, setting, det, seed=seed)
            assert abs(noisy.n_prime - ideal.n_prime) < NUM_STDS * noisy.n_stderr
            assert abs(noisy.j_prime - ideal.j_prime) < NUM_STDS * noisy.j_stderr

    def test_exact_photocount_with_loss_is_loss_corrected(self):
        # One arm of a TMSV at r = 0.5 is thermal with n = cosh(1)/2; the
        # detector sees eta n + (1 - eta)/2 and undoes it exactly.
        v = quad_to_mode(tmsv_state(0.5))
        det = DetectorModel(kind="lossy-photocount", eta=0.6)
        obs = observe_mode1(v, BenchSetting(0.0, 0.0), det)
        assert obs.n_prime == pytest.approx(math.cosh(1.0) / 2, rel=1e-12)
        assert obs.j_prime == pytest.approx(math.cosh(1.0) ** 2 / 4, rel=1e-12)

    @pytest.mark.parametrize("kind", ["ideal", "lossy-homodyne", "lossy-photocount"])
    def test_exact_reading_with_a_negative_variance_is_rejected(self, kind):
        # The input passes the per-mode checks but its output mode at
        # theta = pi/4 has n' = 0.5 - 0.6 < 0.  Every exact reading rejects
        # it; a finite-shot reading is an estimate and stays unchecked.
        v = ModeCovariance(n1=0.5, n2=0.5, ms=0.6)
        setting = BenchSetting(math.pi / 4, 0.0)
        eta = 1.0 if kind == "ideal" else 0.8
        with pytest.raises(UnphysicalMeasurementError):
            observe_mode1(v, setting, DetectorModel(kind=kind, eta=eta))
        if kind != "ideal":
            sampled = DetectorModel(kind=kind, eta=eta, shots=1000)
            noisy = observe_mode1(v, setting, sampled, seed=1)
            assert noisy.n_prime < 0.0

    def test_detector_model_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(kind="telepathy")
        with pytest.raises(ValueError):
            DetectorModel(kind="lossy-homodyne", eta=0.0)
        with pytest.raises(ValueError):
            DetectorModel(kind="lossy-homodyne", eta=0.5, shots=0)
        with pytest.raises(ValueError):
            DetectorModel(kind="ideal", eta=0.5)
        with pytest.raises(ValueError):
            DetectorModel(kind="ideal", shots=100)

    @pytest.mark.parametrize("eta", [1e-164, 1e-168, 1.49e-154, [0.5, 1e-160]])
    def test_detector_model_rejects_an_eta_whose_square_is_not_normal(self, eta):
        # Loss correction divides by eta^2; below sqrt of the smallest normal
        # double it is subnormal or zero, and the inversion loses every digit.
        bad = eta[-1] if isinstance(eta, list) else eta
        for kind in ("lossy-homodyne", "lossy-photocount"):
            with pytest.raises(ValueError, match=f"eta = {bad} too small"):
                DetectorModel(kind=kind, eta=eta)
        assert DetectorModel(kind="lossy-homodyne", eta=1.5e-154).eta == 1.5e-154

    def test_detector_model_keeps_the_efficiencies_it_checked(self):
        # The bench trusts the model's check: a later write to the caller's
        # array does not reach the model, and its own copy is read-only.
        eta = np.array([0.5, 0.9])
        det = DetectorModel(kind="lossy-homodyne", eta=eta)
        eta[0] = -1.0
        assert det.eta.tolist() == [0.5, 0.9]
        with pytest.raises(ValueError):
            det.eta[0] = 2.0
        with pytest.raises(ValueError, match="eta = -1.0 outside"):
            DetectorModel(kind="lossy-homodyne", eta=eta)
