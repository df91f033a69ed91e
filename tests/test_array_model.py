"""Array model tests.

Steering matrix and gradient values and the finite-difference oracle for
the gradient, dictionary grid layout and row orthogonality, SNR calibration
(closed form and Monte Carlo), and synthesis determinism.
"""

import dataclasses

import numpy as np
import pytest

from gomp import array_model
from gomp.array_model import (
    Dictionary,
    MeasurementSet,
    SourceScene,
    UlaConfig,
    build_dictionary,
    noise_scale_for_snr,
    steering_gradient,
    steering_matrix,
    synthesize_measurements,
)
from gomp.estimator import EstimationResult
from gomp.projection_design import DesignTrace, ProjectionMatrix, random_cm_projection


# ---------------------------------------------------------------- steering

def test_steering_vector_zero_frequency():
    assert np.allclose(steering_matrix(0.0, 4)[:, 0], np.ones(4))


def test_steering_vector_pi():
    assert np.allclose(steering_matrix(np.pi, 2)[:, 0], [1.0, -1.0])


def test_steering_vector_quarter_turn():
    assert np.allclose(steering_matrix(np.pi / 2, 3)[:, 0], [1.0, 1j, -1.0])


def test_steering_vector_unit_modulus():
    rng = np.random.default_rng(0)
    for _ in range(50):
        nu = rng.uniform(-10, 10)
        m = int(rng.integers(1, 100))
        assert np.max(np.abs(np.abs(steering_matrix(nu, m)[:, 0]) - 1.0)) < 1e-12


def test_steering_vector_rejects_bad_args():
    with pytest.raises(ValueError):
        steering_matrix(0.0, 0)
    with pytest.raises(ValueError):
        steering_matrix(np.nan, 4)


def test_steering_matrix_and_scene_name_a_non_finite_frequency():
    with pytest.raises(ValueError, match=r"nu has non-finite entry nan at \(1\)"):
        steering_matrix([0.5, np.nan], 4)
    with pytest.raises(ValueError, match=r"nu has non-finite entry nan at \(1\)"):
        SourceScene(nu=[0.5, np.nan], X=np.ones((2, 3)))


def test_steering_gradient_zero_frequency():
    assert np.allclose(steering_gradient(steering_matrix(0.0, 3))[:, 0], [0.0, 1j, 2j])


def test_steering_gradient_pi():
    assert np.allclose(steering_gradient(steering_matrix(np.pi, 2))[:, 0], [0.0, -1j])


def test_steering_gradient_matches_finite_differences():
    """Central finite differences of the steering matrix are the oracle,
    column by column."""
    h = 1e-6
    fd = (steering_matrix(0.3 + h, 8) - steering_matrix(0.3 - h, 8)) / (2 * h)
    assert np.max(np.abs(steering_gradient(steering_matrix(0.3, 8)) - fd)) < 1e-8
    # truncation error grows with m; the general contract is relative
    nus = np.array([1.7, -2.5, 6.1])
    for m in (3, 33, 64):
        fd = (steering_matrix(nus + h, m) - steering_matrix(nus - h, m)) / (2 * h)
        g = steering_gradient(steering_matrix(nus, m))
        assert (np.linalg.norm(g - fd, axis=0) < 1e-7 * np.linalg.norm(g, axis=0)).all(), f"m={m}"


def test_steering_gradient_fd_relative_error_random():
    h = 1e-6
    rng = np.random.default_rng(7)
    for _ in range(25):
        nu = float(rng.uniform(-np.pi, 2 * np.pi))
        m = int(rng.integers(2, 80))
        fd = (steering_matrix(nu + h, m) - steering_matrix(nu - h, m)) / (2 * h)
        g = steering_gradient(steering_matrix(nu, m))
        assert np.linalg.norm(g - fd) < 1e-7 * max(np.linalg.norm(g), 1.0)


def test_steering_gradient_is_the_ramp_product_and_owns_its_result():
    """The column 1j * i is built once per m and read-only, the product is
    bitwise 1j * arange(m)[:, None] * a, and each call returns a fresh
    writable array."""
    for m in (1, 5, 64):
        a = steering_matrix([0.4, 2.7], m)
        g = steering_gradient(a)
        assert np.array_equal(g, 1j * np.arange(m)[:, None] * a)
        g[:] = 0
        assert np.array_equal(steering_gradient(a), 1j * np.arange(m)[:, None] * a)


def test_steering_matrix_stacks_columns():
    nus = np.array([0.1, 0.9, 2.2])
    a = steering_matrix(nus, 5)
    for k, nu in enumerate(nus):
        assert np.array_equal(a[:, k], steering_matrix(nu, 5)[:, 0])


# -------------------------------------------------------------- dictionary

def test_build_dictionary_uniform_grid():
    d = build_dictionary(4, 2 * np.pi, 2)
    assert np.allclose(d.grid, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_build_dictionary_full_circle_orthogonal_rows():
    d = build_dictionary(64, 2 * np.pi, 64)
    gram = d.A_ring @ d.A_ring.conj().T
    assert np.max(np.abs(gram - 64 * np.eye(64))) < 1e-9


def test_build_dictionary_partial_span_not_tight():
    d = build_dictionary(64, 2 * np.pi * 15 / 64, 64)
    gram = d.A_ring @ d.A_ring.conj().T
    assert np.max(np.abs(gram - 64 * np.eye(64))) > 1.0


def test_build_dictionary_column_norms():
    d = build_dictionary(96, 2 * np.pi, 32)
    assert np.allclose(np.linalg.norm(d.A_ring, axis=0), np.sqrt(32))


def test_dictionary_builds_read_only_steering_columns(monkeypatch):
    grid = np.array([0.0, 0.4, 1.9, 3.0, 5.5])
    built = []

    def steering(*args):
        built.append(steering_matrix(*args))
        return built[-1]

    monkeypatch.setattr(array_model, "steering_matrix", steering)
    d = Dictionary(grid=grid, M=4)
    assert d.A_ring is built[0], "the dictionary's own steering columns are stored without a copy"
    assert d.A_ring.tobytes() == steering_matrix(grid, 4).tobytes()
    assert (d.M, d.P) == (4, 5)
    with pytest.raises(ValueError, match="read-only"):
        d.A_ring[0, 0] = 0.0
    with pytest.raises(ValueError, match="P=3 must be at least the sensor count M=4"):
        Dictionary(grid=grid[:3], M=4)


def test_dictionary_rejects_p_below_m():
    with pytest.raises(ValueError):
        build_dictionary(3, 2 * np.pi, 4)


# ------------------------------------------------------------------ types

def test_ula_config_validation():
    UlaConfig(M=2)
    with pytest.raises(ValueError):
        UlaConfig(M=1)


def test_source_scene_validation():
    SourceScene(nu=[0.5], X=np.ones((1, 3)))
    with pytest.raises(ValueError):
        SourceScene(nu=[0.5, 1.0], X=np.ones((1, 3)))
    with pytest.raises(ValueError):
        SourceScene(nu=[0.5], X=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        SourceScene(nu=[np.inf], X=np.ones((1, 3)))
    # a non-finite waveform entry is named here, not left for the synthesis
    # to blame on the SNR or to pass on as a non-finite Y
    for bad in (np.inf, np.nan, complex(1.0, -np.inf)):
        x = np.ones((2, 3), dtype=complex)
        x[1, 2] = bad
        with pytest.raises(ValueError, match=r"X has non-finite entry .* at \(source 1, sample 2\)"):
            SourceScene(nu=[0.5, 1.0], X=x)


# each value type, built from the caller's arrays (a dict of field -> array)
_VALUE_TYPES = {
    "scene": (SourceScene, {"nu": np.array([0.1, 0.2]), "X": np.ones((2, 3), dtype=complex)}),
    "dictionary": (lambda **a: Dictionary(M=2, **a), {"grid": np.array([0.0, 1.0, 2.0])}),
    "measurements": (MeasurementSet, {"Y": np.ones((2, 3), dtype=complex)}),
    "projection": (ProjectionMatrix, {"phi": np.ones((2, 3), dtype=complex)}),
    "estimate": (lambda **a: EstimationResult(histories=(np.ones(1),), stop_reason="stalled", **a),
                 {"nu_hat": np.array([0.1, 0.2]), "X_hat": np.ones((2, 3), dtype=complex),
                  "initial_grid_indices": np.array([3, 5])}),
    "design-trace": (lambda **a: DesignTrace(final_phi=ProjectionMatrix(phi=np.ones((1, 2))), best_iter=1,
                                             stop_iter=1, **a),
                     {"coherence_per_iter": np.array([0.6, 0.5]), "objective_per_iter": np.array([2.0, 1.0]),
                      "step_per_iter": np.array([0.05]), "evals_per_iter": np.array([1])}),
}


@pytest.mark.parametrize("sliced", [False, True], ids=["own-arrays", "slices"])
@pytest.mark.parametrize("kind", _VALUE_TYPES)
def test_value_types_keep_read_only_copies_of_the_callers_arrays(kind, sliced):
    """A value type neither freezes the arrays its caller passed nor aliases
    them: they stay writeable, a later write to them (or, for a slice, to
    the larger array it views) leaves the value as built, and every
    ndarray field of the value is read-only."""
    make, arrays = _VALUE_TYPES[kind]
    arrays = {name: a.copy() for name, a in arrays.items()}
    owners = arrays
    if sliced:  # each array is the first rows of a larger one
        owners = {name: np.concatenate([a, a]) for name, a in arrays.items()}
        arrays = {name: owners[name][:len(a)] for name, a in arrays.items()}
    value = make(**arrays)
    built = {f.name: np.array(getattr(value, f.name)) for f in dataclasses.fields(value)
             if isinstance(getattr(value, f.name), np.ndarray)}
    assert set(arrays) <= set(built)
    for name, owner in owners.items():
        assert owner.flags.writeable and arrays[name].flags.writeable, name
        owner[...] = 7
    for name, before in built.items():
        field = getattr(value, name)
        assert np.array_equal(field, before), f"{name} changed with the caller's array"
        assert not field.flags.writeable, f"{name} is writeable"


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: steering_matrix(np.zeros((1, 3)), 4), r"nu must be a 1-D array, got shape \(1, 3\)",
                 id="steering-nu-2d"),
    pytest.param(lambda: Dictionary(grid=np.zeros((2, 8)), M=4), r"grid must be a 1-D array, got shape \(2, 8\)",
                 id="dictionary-grid-2d"),
    pytest.param(lambda: SourceScene(nu=0.5, X=np.ones(4)), r"X must be a 2-D array, got shape \(4,\)",
                 id="scene-x-1d"),
    pytest.param(lambda: SourceScene(nu=[], X=np.ones((0, 3))), "nu must be a non-empty vector", id="scene-empty-nu"),
    pytest.param(lambda: SourceScene(nu=[0.5], X=np.ones((1, 0))), "X must have at least one time sample",
                 id="scene-no-samples"),
    pytest.param(lambda: build_dictionary(0, 2 * np.pi, 4), "grid size must be >= 1, got 0", id="dictionary-p"),
    pytest.param(lambda: build_dictionary(8, 0.0, 4), "nu_max must be positive, got 0.0", id="dictionary-nu-max"),
])
def test_rejected_input_is_named(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# -------------------------------------------------------- noise calibration

def test_noise_scale_trivial_cases():
    assert noise_scale_for_snr(1.0, 0.0, 1.0) == pytest.approx(1.0)
    assert noise_scale_for_snr(1.0, np.inf, 1.0) == 0.0


def test_noise_scale_matches_decibel_arithmetic():
    # 10*log10(4) = 6.020599913 dB, so a 6.0206 dB target gives sigma ~ 1
    assert abs(noise_scale_for_snr(4.0, 6.0206, 1.0) - 1.0) < 1e-5


def test_noise_scale_rejects_bad_input():
    with pytest.raises(ValueError):
        noise_scale_for_snr(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        noise_scale_for_snr(1.0, 0.0, 0.0)


@pytest.mark.parametrize("snr_db", [np.nan, -np.inf, -4000.0, 4000.0])
def test_noise_scale_rejects_nan_and_minus_inf_snr(snr_db):
    with pytest.raises(ValueError, match="snr_db"):
        noise_scale_for_snr(1.0, snr_db, 1.0)


# ---------------------------------------------------------------- synthesis

def _small_scene(seed=3, k=1, l=8):
    rng = np.random.default_rng(seed)
    nu = rng.uniform(0, 2 * np.pi, k)
    x = (rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l))) / np.sqrt(2)
    return SourceScene(nu=nu, X=x)


def test_synthesis_noiseless_is_exact():
    scene = _small_scene()
    phi = random_cm_projection(4, 16, seed=11)
    meas = synthesize_measurements(scene, phi, UlaConfig(M=16), np.inf, seed=5)
    expected = phi.phi @ (steering_matrix(scene.nu, 16) @ scene.X)
    assert np.array_equal(meas.Y, expected)


def test_synthesis_deterministic_per_seed():
    scene = _small_scene(k=2)
    phi = random_cm_projection(4, 16, seed=11)
    a = synthesize_measurements(scene, phi, UlaConfig(M=16), 10.0, seed=42)
    b = synthesize_measurements(scene, phi, UlaConfig(M=16), 10.0, seed=42)
    c = synthesize_measurements(scene, phi, UlaConfig(M=16), 10.0, seed=43)
    assert np.array_equal(a.Y, b.Y)
    assert not np.array_equal(a.Y, c.Y)


def test_synthesis_dimension_mismatch():
    scene = _small_scene()
    phi = random_cm_projection(4, 8, seed=1)
    with pytest.raises(ValueError):
        synthesize_measurements(scene, phi, UlaConfig(M=16), 10.0, seed=0)


def test_synthesis_names_a_projection_that_is_not_2d():
    with pytest.raises(ValueError, match=r"Phi must be a 2-D array, got shape \(16,\)"):
        synthesize_measurements(_small_scene(), np.ones(16), UlaConfig(M=16), 10.0, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("snr_db", [10.0, np.inf])
def test_synthesis_names_a_non_finite_projection_entry(bad, snr_db):
    """A plain-array Phi with a non-finite entry is named with its index,
    not blamed on the noise power, passed on as a non-finite Y or left to
    the matmul."""
    phi = np.array(random_cm_projection(4, 16, seed=11).phi)
    phi[2, 7] = bad
    with pytest.raises(ValueError, match=r"Phi has non-finite entry .* at \(2, 7\)"):
        synthesize_measurements(_small_scene(), phi, UlaConfig(M=16), snr_db, seed=5)


def test_measurement_set_rejects_a_y_that_is_not_2d():
    """A Y of shape (N,) is not read as one row."""
    with pytest.raises(ValueError, match=r"Y must be a 2-D array, got shape \(4,\)"):
        MeasurementSet(Y=np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_measurement_set_names_a_non_finite_entry(bad):
    y = np.ones((3, 4), dtype=complex)
    y[1, 2] = bad
    with pytest.raises(ValueError, match=r"Y has non-finite entry .* at \(row 1, column 2\)"):
        MeasurementSet(Y=y)


def test_synthesis_snr_monte_carlo():
    """Empirical SNR over 10^4 noise draws stays within 0.2 dB of target."""
    scene = _small_scene(seed=9, k=1, l=4)
    phi = random_cm_projection(8, 16, seed=2)
    signal = phi.phi @ (steering_matrix(scene.nu, 16) @ scene.X)
    signal_power = np.linalg.norm(signal) ** 2
    noise_powers = np.empty(10_000)
    for i in range(noise_powers.size):
        meas = synthesize_measurements(scene, phi, UlaConfig(M=16), 0.0, seed=i)
        noise_powers[i] = np.linalg.norm(meas.Y - signal) ** 2
    snr_db = 10 * np.log10(signal_power / noise_powers.mean())
    print(f"\n  empirical SNR at 0 dB target: {snr_db:+.4f} dB")
    assert abs(snr_db) < 0.2, f"empirical SNR {snr_db:.3f} dB off target"
