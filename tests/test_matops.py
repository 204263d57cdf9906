import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from cbi import matops
from cbi.errors import NumericRangeError
from cbi.matops import (_kron_sum, branching_integral, exp_and_integral_vec, is_irreducible,
                        mat_exp, perron_vectors, spectral)

from conftest import assert_close, make_jump_d2, write_params
from ref_oracles import irreducible_csgraph, variance_quad, vec_integral

TWO_CYCLE = np.array([[-1.0, 1.0], [1.0, -1.0]])


def _small_matrices():
    return st.lists(st.floats(min_value=-2.0, max_value=2.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=4, max_size=4).map(lambda v: np.array(v).reshape(2, 2))


# --- mat_exp ---------------------------------------------------------------

def test_mat_exp_zero_matrix_is_identity():
    assert np.array_equal(mat_exp(np.zeros((3, 3)), 5.0), np.eye(3))
    assert np.array_equal(mat_exp(TWO_CYCLE, 0.0), np.eye(2))


def test_mat_exp_scalar():
    assert mat_exp([[0.7]], 1.0)[0, 0] == pytest.approx(math.exp(0.7), rel=1e-14, abs=0.0)


def test_mat_exp_two_cycle():
    e2 = math.exp(-2.0)
    expected = 0.5 * np.array([[1 + e2, 1 - e2], [1 - e2, 1 + e2]])
    assert_close(mat_exp(TWO_CYCLE, 1.0), expected, 1e-13)


def test_mat_exp_overflow_raises():
    # overflow in the squarings, and in t*A before any scaling; no numpy
    # warning may escape either (pytest turns one into an error)
    for A, t in (([[1000.0]], 1000.0), ([[1e300]], 1e10)):
        with pytest.raises(NumericRangeError, match="overflowed"):
            mat_exp(A, t)
    # the size reported is the largest entry, which is finite for a finite A
    # (a Frobenius norm of [[1e300]] overflows to inf)
    with pytest.raises(NumericRangeError) as err:
        mat_exp([[1e300]], 1e10)
    assert "1e+300" in str(err.value) and "inf" not in str(err.value)
    # a subnormal t*A needs no scaling (no log2 of a zero norm)
    assert np.array_equal(mat_exp([[0.0, 0.0], [0.0, 1.0]], 5e-324), np.eye(2))


def test_mat_exp_non_finite_matrix_raises():
    # a NaN, an inf, and an inf at t = 0, where t*A is NaN; no numpy
    # warning may escape (pytest turns one into an error)
    for A, t in (([[0.5, np.nan], [0.0, 1.0]], 1.0), ([[0.5, 0.0], [np.inf, 1.0]], 1.0),
                 ([[0.5, 0.0], [-np.inf, 1.0]], 0.0)):
        with pytest.raises(NumericRangeError, match="non-finite matrix"):
            mat_exp(A, t)


def _essentially_nonnegative(rng, d, diag_low, off_high):
    A = rng.uniform(0.0, off_high, (d, d))
    np.fill_diagonal(A, rng.uniform(diag_low, 0.5, d))
    return A


@pytest.mark.parametrize("kind, diag_low, off_high, t", [
    ("moderate", -2.0, 1.0, 1.0),
    ("stiff", -60.0, 1.0, 2.0),          # ||tA||_1 ~ 100: several squarings
    ("supercritical", 0.0, 1.0, 2.0),    # entries grow to ~1e4
])
def test_mat_exp_matches_scipy_expm(kind, diag_low, off_high, t):
    # The in-repo Pade-13 against scipy's expm (a separate implementation,
    # used here only) on the blocks the package exponentiates: A itself, the
    # flow block [[A, w], [0, 0]] and the branching block [[A (+) A, vec C],
    # [0, A]] for d <= 4. Against a 40-digit reference, mat_exp is within
    # 4e-15 of the largest entry on these matrices and scipy within
    # 2e-13 (its worst: supercritical branching blocks); the bound is 1e-12
    # of max(1, largest entry).
    rng = np.random.default_rng(13)
    for d in range(1, 5):
        for _ in range(5):
            A = _essentially_nonnegative(rng, d, diag_low, off_high)
            vec_c = np.stack([np.ravel(G @ G.T) for G in rng.normal(size=(d, d, d))], axis=1)
            for M in (A,
                      np.block([[A, rng.uniform(0.0, 1.0, (d, 1))], [np.zeros((1, d + 1))]]),
                      np.block([[_kron_sum(A), vec_c], [np.zeros((d, d * d)), A]])):
                expected = scipy.linalg.expm(t * M)
                assert_close(mat_exp(M, t), expected,
                             1e-12 * max(1.0, float(np.max(np.abs(expected)))), f"{kind} d={d}")



def _signed_zeros(rng, shape) -> np.ndarray:
    """Normal entries with about a third set to +0.0 and a third to -0.0."""
    A = rng.normal(size=shape)
    pick = rng.integers(0, 3, size=shape)
    A[pick == 1] = 0.0
    A[pick == 2] = -0.0
    return A


def test_kron_sum_is_np_kron_bit_for_bit():
    # including the sign of every zero: A_ij * 0 is -0.0 for negative A_ij
    rng = np.random.default_rng(5)
    for d in range(1, 7):
        eye = np.eye(d)
        for _ in range(20):
            A = _signed_zeros(rng, (d, d))
            assert _kron_sum(A).tobytes() == (np.kron(A, eye) + np.kron(eye, A)).tobytes(), d


def test_block_exp_forms_the_np_block_matrix(monkeypatch):
    # the matrix each block exponential hands to mat_exp, bit for bit,
    # against [[A, W], [0, D]] from np.block
    seen = []
    monkeypatch.setattr(matops, "mat_exp", lambda M, t: seen.append((M, t)) or np.zeros_like(M))
    rng = np.random.default_rng(6)
    for d in range(1, 5):
        A, w = _signed_zeros(rng, (d, d)), _signed_zeros(rng, d)
        big_c = [G @ G.T for G in _signed_zeros(rng, (d, d, d))]
        exp_and_integral_vec(A, w, 0.5)
        branching_integral(A, big_c, np.ones(d), 0.5)
        vec_c = np.stack([np.ravel(C) for C in big_c], axis=1)
        expected = (np.block([[A, w[:, None]], [np.zeros((1, d + 1))]]),
                    np.block([[_kron_sum(A), vec_c], [np.zeros((d, d * d)), A]]))
        for (M, t), ref in zip(seen[-2:], expected):
            assert t == 0.5
            assert M.tobytes() == ref.tobytes() and M.shape == ref.shape

def test_import_and_exponentials_leave_scipy_unloaded(tmp_path):
    # numpy is the only runtime dependency: importing the package, a mean
    # and a prop31 table (both exponentiate) load no scipy module
    path = tmp_path / "jump_d2.json"
    write_params(make_jump_d2(), path)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import io, json, sys, contextlib, cbi, cbi.cli\n"
        f"params = cbi.CbiParams.from_dict(json.loads(open({str(path)!r}).read()))\n"
        "cbi.mean(params, [1.0, 0.5], 2.0)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cbi.cli.run(['prop31', '--params', {str(path)!r}, '--x', '1,0.5',\n"
        "                        '--lambda', '0.7,1.2', '--n-list', '10,100'])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


@settings(max_examples=50, deadline=None)
@given(A=_small_matrices(),
       s=st.floats(min_value=0.0, max_value=2.0),
       t=st.floats(min_value=0.0, max_value=2.0))
def test_mat_exp_semigroup(A, s, t):
    left = mat_exp(A, s + t)
    right = mat_exp(A, s) @ mat_exp(A, t)
    scale = max(1.0, float(np.max(np.abs(left))))
    assert_close(left, right, 1e-11 * scale, "semigroup")


@settings(max_examples=50, deadline=None)
@given(A=_small_matrices(), t=st.floats(min_value=0.0, max_value=3.0))
def test_mat_exp_nonnegative_for_essentially_nonnegative(A, t):
    A = A.copy()
    off = np.abs(A - np.diag(np.diag(A)))  # force off-diagonal >= 0
    A = np.diag(np.diag(A)) + off
    E = mat_exp(A, t)
    assert np.all(E >= -1e-13 * max(1.0, float(np.max(np.abs(E)))))


# --- spectral --------------------------------------------------------------

def test_spectral_two_cycle():
    s = spectral(TWO_CYCLE)
    assert sorted(v.real for v in s.eigenvalues) == pytest.approx([-2.0, 0.0], abs=1e-12)
    assert s.spectral_abscissa == pytest.approx(0.0, abs=1e-12)
    assert s.spectral_radius == pytest.approx(2.0, abs=1e-12)


def test_spectral_zero_and_scalar():
    s = spectral(np.zeros((2, 2)))
    assert s.spectral_abscissa == 0.0 and s.spectral_radius == 0.0
    s = spectral([[-1.0]])
    assert s.spectral_abscissa == -1.0 and s.spectral_radius == 1.0


def test_abscissa_bounded_by_radius_for_perron_like_matrices():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.uniform(0, 1, size=(3, 3))  # nonnegative: Perron root real
        s = spectral(A)
        assert s.spectral_abscissa <= s.spectral_radius + 1e-12


# --- irreducibility --------------------------------------------------------

def test_one_by_one_always_irreducible():
    assert is_irreducible([[-3.0]])
    assert is_irreducible([[0.0]])


def test_two_cycle_irreducible():
    assert is_irreducible(TWO_CYCLE)


def test_upper_triangular_reducible():
    assert not is_irreducible(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_three_state_cycle_only():
    A = np.zeros((3, 3))
    A[0, 1] = A[1, 2] = A[2, 0] = 1.0
    assert is_irreducible(A)
    A[2, 0] = 0.0  # break the cycle
    assert not is_irreducible(A)


def test_irreducibility_matches_strong_components_oracle():
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(2000):
        d = int(rng.integers(1, 9))
        density = rng.uniform(0.05, 0.6)
        A = np.where(rng.random((d, d)) < density, rng.uniform(0.1, 2.0, (d, d)), 0.0)
        np.fill_diagonal(A, -rng.uniform(0.0, 3.0, d))
        verdicts.append(is_irreducible(A))
        assert verdicts[-1] == irreducible_csgraph(A), A
    assert 0 < sum(verdicts) < len(verdicts)
    for d in range(2, 9):  # one long cycle: the longest path has d - 1 edges
        A = np.roll(np.eye(d), 1, axis=1)
        assert is_irreducible(A) and irreducible_csgraph(A)
        A[d - 1, 0] = 0.0
        assert not is_irreducible(A) and not irreducible_csgraph(A)


# --- Perron pair -----------------------------------------------------------

def test_perron_pair_two_cycle():
    pp = perron_vectors(TWO_CYCLE)
    assert_close(pp.u_right, [0.5, 0.5], 1e-12)
    assert_close(pp.u_left, [1.0, 1.0], 1e-12)
    assert pp.u_right.sum() == pytest.approx(1.0, abs=1e-15)
    assert pp.u_left @ pp.u_right == pytest.approx(1.0, abs=1e-14)
    assert_close(mat_exp(TWO_CYCLE, 1.0) @ pp.u_right, pp.u_right, 1e-9)


def test_perron_pair_scalar():
    pp = perron_vectors([[0.0]])
    assert pp.u_right[0] == 1.0 and pp.u_left[0] == 1.0


def test_perron_pair_asymmetric_critical():
    pp = perron_vectors(np.array([[-2.0, 2.0], [1.0, -1.0]]))
    assert_close(pp.u_right, [0.5, 0.5], 1e-12)
    assert_close(pp.u_left, [2.0 / 3.0, 4.0 / 3.0], 1e-12)


# --- matrix integrals ------------------------------------------------------

def test_exp_integral_identity_cases():
    w = np.array([0.4, 1.1])
    assert_close(exp_and_integral_vec(np.zeros((2, 2)), w, 1.0)[1], w, 1e-14)


def test_exp_integral_scalar_closed_form():
    # int_0^1 exp(-2s) 2 ds, the scalar sandwich int_0^1 e^{-s} 2 e^{-s} ds
    val = exp_and_integral_vec([[-2.0]], [2.0], 1.0)[1]
    assert val[0] == pytest.approx(1.0 - math.exp(-2.0), rel=1e-13, abs=0.0)


def test_exp_integral_rejects_negative_horizon():
    for call in (lambda: exp_and_integral_vec(np.zeros((2, 2)), np.ones(2), -1.0),
                 lambda: branching_integral(np.zeros((2, 2)), [np.eye(2)] * 2, np.ones(2), -1.0)):
        with pytest.raises(ValueError):
            call()


def test_exp_integral_matches_quadrature_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rng.normal(size=(3, 3))
        rng.normal(size=(3, 3))  # unused draw: keeps A, t and w the seeded cases
        t = float(rng.uniform(0.1, 2.0))
        w = rng.normal(size=3)
        oracle_v = vec_integral(A, w, t)
        tol_v = 1e-12 * max(1.0, float(np.max(np.abs(oracle_v))))
        assert_close(exp_and_integral_vec(A, w, t)[1], oracle_v, tol_v,
                     "vector integral vs quadrature")


def test_exp_integral_stiff_and_growing():
    # One eigenvalue near -40 over t = 2, and a supercritical matrix over
    # t = 3: a Van Loan block with -A^T beside A would form exp(80) for the
    # first and lose every digit.
    w = np.array([0.4, 1.1])
    for A, t in ((np.array([[-40.0, 1.0], [2.0, -1.0]]), 2.0),
                 (np.array([[0.3, 0.5], [0.2, 0.1]]), 3.0)):
        oracle_v = vec_integral(A, w, t)
        assert_close(exp_and_integral_vec(A, w, t)[1], oracle_v,
                     1e-12 * np.max(np.abs(oracle_v)), "stiff/growing vector")


def test_branching_integral_matches_quadrature_oracle():
    rng = np.random.default_rng(12)
    for _ in range(5):
        A = rng.normal(size=(3, 3))
        big_c = [G @ G.T for G in rng.normal(size=(3, 3, 3))]
        z = rng.uniform(0.0, 2.0, size=3)
        t = float(rng.uniform(0.1, 2.0))
        oracle = variance_quad(A, big_c, z, t)
        assert_close(branching_integral(A, big_c, z, t), oracle,
                     1e-12 * max(1.0, float(np.max(np.abs(oracle)))),
                     "branching integral vs quadrature")
