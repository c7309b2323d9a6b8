import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from contrack.linalg import (
    ConvergenceError,
    NonFiniteDerivative,
    is_pd,
    projection_matrix,
    rk4_step,
    sym_eigen,
    symmetrize,
)
from oracles import sturm_eigenvalues


def random_symmetric(rng, n, scale=5.0):
    a = rng.normal(scale=scale, size=(n, n))
    return 0.5 * (a + a.T)


def test_oracle_self_check_on_diagonal():
    # Guard the test oracle itself before using it against the implementation.
    d = np.diag([3.0, -1.0, 2.0, 0.5])
    assert_allclose(sturm_eigenvalues(d), [-1.0, 0.5, 2.0, 3.0], atol=1e-10)


def test_sym_eigen_identity():
    spectrum = sym_eigen(np.eye(3))
    assert_allclose(spectrum.values, [1.0, 1.0, 1.0], atol=1e-12)
    assert_allclose(spectrum.vectors @ spectrum.vectors.T, np.eye(3), atol=1e-12)


def test_sym_eigen_diagonal_sorted():
    spectrum = sym_eigen(np.diag([3.0, 1.0, 2.0]))
    assert_allclose(spectrum.values, [1.0, 2.0, 3.0], atol=1e-12)


def test_sym_eigen_matches_sturm_oracle_6x6():
    rng = np.random.default_rng(42)
    a = random_symmetric(rng, 6)
    assert_allclose(sym_eigen(a).values, sturm_eigenvalues(a), atol=1e-8)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_sym_eigen_oracle_and_quality(seed, n):
    rng = np.random.default_rng(seed)
    a = random_symmetric(rng, n)
    spectrum = sym_eigen(a)
    assert np.all(np.diff(spectrum.values) >= -1e-12)
    assert_allclose(spectrum.values, sturm_eigenvalues(a), atol=1e-8)
    q = spectrum.vectors
    assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10
    recon = q @ np.diag(spectrum.values) @ q.T
    assert np.max(np.abs(recon - a)) <= 1e-9 * (1.0 + np.max(np.abs(a)))


def test_sym_eigen_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_eigen(np.array([[1.0, np.inf], [np.inf, 1.0]]))
    with pytest.raises(ValueError):
        sym_eigen(np.zeros((2, 3)))


def test_sym_eigen_zero_matrix():
    spectrum = sym_eigen(np.zeros((4, 4)))
    assert_allclose(spectrum.values, np.zeros(4))


def test_symmetrize_averages():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    assert_allclose(symmetrize(a), [[1.0, 1.0], [1.0, 3.0]])


def test_is_pd_margins():
    assert is_pd(np.eye(2), margin=0.5)
    assert not is_pd(np.diag([0.4, 1.0]), margin=0.4)  # strict inequality


def test_is_pd_gain_ratio_matrix():
    # Third-order stability matrix evaluated at the constant-acceleration
    # design point; expected entries written out from the gain ratios.
    k1, k2, k3, delta = 10.0, 3.7, 0.5, 0.3
    q = 2.0 * np.array(
        [
            [k3 / k2, 0.0, k3 / (2 * k2)],
            [0.0, k2 / k1 - k3 / k2, -k3 / (2 * k2)],
            [k3 / (2 * k2), -k3 / (2 * k2), delta],
        ]
    )
    assert is_pd(q, margin=0.0)


def test_is_pd_rejects_negative_margin():
    with pytest.raises(ValueError):
        is_pd(np.eye(2), margin=-0.1)


def test_kron_identities():
    assert_allclose(np.kron(np.eye(2), np.eye(3)), np.eye(6))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = np.kron(swap, np.eye(2))
    want = np.zeros((4, 4))
    want[0:2, 2:4] = np.eye(2)
    want[2:4, 0:2] = np.eye(2)
    assert_allclose(got, want)


def test_kron_laplacian_eigenvalue_multiplicity():
    # Ring-of-4 Laplacian spread over 3 coordinates: each eigenvalue appears
    # three times.
    a = np.zeros((4, 4))
    for i in range(4):
        a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
    lap = np.diag(a.sum(axis=1)) - a
    big = np.kron(lap, np.eye(3))
    values = sym_eigen(big).values
    expected = np.sort(np.repeat([0.0, 2.0, 2.0, 4.0], 3))
    assert_allclose(values, expected, atol=1e-9)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 2))
    c = rng.normal(size=(3, 2))
    d = rng.normal(size=(2, 3))
    lhs = np.kron(a, b) @ np.kron(c, d)
    rhs = np.kron(a @ c, b @ d)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_projection_matrix_axis_aligned():
    assert_allclose(projection_matrix([0.0, 0.0, 1.0]), np.diag([1.0, 1.0, 0.0]))


def test_projection_matrix_diagonal_direction():
    b = np.ones(3) / np.sqrt(3.0)
    p = projection_matrix(b)
    want = np.full((3, 3), -1.0 / 3.0)
    np.fill_diagonal(want, 2.0 / 3.0)
    assert_allclose(p, want, atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_projection_matrix_algebra(seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=3)
    b /= np.linalg.norm(b)
    p = projection_matrix(b)
    assert np.max(np.abs(p @ b)) <= 1e-12
    assert np.max(np.abs(p @ p - p)) <= 1e-12
    assert abs(np.trace(p) - 2.0) <= 1e-12
    assert_allclose(sym_eigen(p).values, [0.0, 1.0, 1.0], atol=1e-10)


def test_projection_matrix_rejects_non_unit():
    with pytest.raises(ValueError):
        projection_matrix([0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        projection_matrix([1.0, 0.0])


def test_rk4_zero_derivative():
    out = rk4_step(lambda t, x: np.zeros_like(x), 0.0, np.array([1.0, -2.0]), 0.1)
    assert_allclose(out, [1.0, -2.0])


def test_rk4_exponential_one_step():
    out = rk4_step(lambda t, x: x, 0.0, np.array([1.0]), 0.1)
    assert abs(out[0] - np.exp(0.1)) <= 1e-7


def test_rk4_exact_for_polynomial_flow():
    # Double integrator with constant velocity: linear-in-time flow, which a
    # fourth-order step reproduces to round-off.
    def f(t, x):
        return np.array([x[1], 0.0])

    state = np.array([1.0, 2.0])
    out = rk4_step(f, 0.0, state, 0.25)
    assert_allclose(out, [1.5, 2.0], rtol=1e-15)


def test_rk4_global_error_decay():
    x = np.array([1.0])
    h = 1e-3
    for i in range(1000):
        x = rk4_step(lambda t, s: -s, i * h, x, h)
    assert abs(x[0] - np.exp(-1.0)) <= 1e-10


def test_rk4_nonfinite_derivative_carries_time():
    def f(t, x):
        return np.array([np.nan])

    with pytest.raises(ValueError, match="t=0.3"):
        rk4_step(f, 0.3, np.array([1.0]), 0.1)


@pytest.mark.parametrize("stage", [0, 1, 2, 3])
def test_rk4_reports_the_stage_time_of_the_first_non_finite_stage(stage):
    # A NaN from one stage poisons every later stage; the first one is
    # reported, at its own time.
    t, h = 0.3, 0.1
    calls = []

    def f(ts, x):
        calls.append(ts)
        return np.array([np.nan]) if len(calls) == stage + 1 else -x

    with pytest.raises(NonFiniteDerivative) as err:
        rk4_step(f, t, np.array([1.0]), h)
    assert err.value.time == (t, t + 0.5 * h, t + 0.5 * h, t + h)[stage]


def test_rk4_overflowing_sum_of_finite_stages_is_returned():
    # Each stage is finite; only their weighted sum overflows.
    with np.errstate(over="ignore"):
        out = rk4_step(lambda t, x: np.array([1e308]), 0.0, np.array([1e308]), 1.0)
    assert out[0] == np.inf


def test_rk4_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        rk4_step(lambda t, x: x, 0.0, np.array([1.0]), 0.0)


def test_jacobi_handles_tight_cluster():
    # Nearly degenerate spectrum; should converge well inside the sweep cap.
    rng = np.random.default_rng(7)
    q = sym_eigen(random_symmetric(rng, 5)).vectors
    a = q @ np.diag([1.0, 1.0 + 1e-12, 1.0 + 2e-12, 2.0, 3.0]) @ q.T
    spectrum = sym_eigen(a)
    assert_allclose(spectrum.values[:3], [1.0, 1.0, 1.0], atol=1e-9)


def test_convergence_error_type_exists():
    assert issubclass(ConvergenceError, RuntimeError)
