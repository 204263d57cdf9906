"""`moments.derive` as the one admissibility gate: it refuses exactly the
tuples that `validate` finds inadmissible, each public call validates
once, and a model whose Perron pair does not exist still serves every
function that does not need it."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbi import affine, cli, generators, matops, moments, simulate
from cbi.errors import ClassificationError, InadmissibleError, NumericRangeError, SolverError
from cbi.model import CbiParams, JumpMeasure, validate
from cbi.moments import CRITICAL
from cbi.testfunctions import bump

from conftest import (assert_close, make_d2_critical, make_degenerate_critical, make_fix_a,
                      make_jump_d2, write_params)

SMALL_PATHS = simulate.PathConfig(x0=[1.0, 0.5], horizon=0.1, dt=0.02, seed=1, n_paths=3)

#: Ways to break an admissible tuple; a drawn tuple gets up to three.
FLAWS = ("negative c", "negative beta", "negative B off-diagonal", "zero weight",
         "negative weight", "atom at the origin", "nan entry", "huge atom", "short c",
         "square B of wrong size", "matrix weights", "mu count", "wrong d", "non-integer d")


@st.composite
def candidate_tuples(draw):
    """An admissible tuple with up to three flaws drawn from FLAWS."""
    d = draw(st.integers(1, 3))
    flaws = draw(st.lists(st.sampled_from(FLAWS), max_size=3))
    unit = st.floats(0.0, 2.0)

    def vec(n):
        return np.array(draw(st.lists(unit, min_size=n, max_size=n)))

    def measure():
        n = draw(st.integers(0, 2))
        weights = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
        return [weights, vec(n * d).reshape(n, d) + 0.1]

    c, beta, B = vec(d), vec(d), vec(d * d).reshape(d, d) - 3.0 * np.eye(d)
    measures = [measure() for _ in range(d + 1)]  # nu, mu_1, ..., mu_d
    dim, n_mu = d, d
    for flaw in flaws:
        k = draw(st.integers(0, d))  # a measure (0 is nu) or a coordinate (k % d)
        w, z = measures[k]
        if flaw in ("zero weight", "negative weight", "atom at the origin", "huge atom") \
                and not len(w):
            w, z = np.array([1.0]), np.full((1, d), 0.5)
        if flaw == "negative c" and len(c):
            c[k % len(c)] = -draw(st.floats(1e-300, 2.0))
        elif flaw == "negative beta":
            beta[k % d] = -draw(st.floats(1e-300, 2.0))
        elif flaw == "negative B off-diagonal" and len(B) > 1:
            B[k % len(B), (k + 1) % len(B)] = -draw(st.floats(1e-300, 2.0))
        elif flaw == "zero weight" and w.ndim == 1:
            w = np.concatenate([w[:-1], [draw(st.sampled_from([0.0, -0.0]))]])
        elif flaw == "negative weight" and w.ndim == 1:
            w = np.concatenate([w[:-1], [-draw(st.floats(1e-300, 2.0))]])
        elif flaw == "atom at the origin":
            z = np.vstack([z[:-1], np.zeros((1, d))])
        elif flaw == "nan entry":
            target = {"c": c, "beta": beta, "B": B, "w": w, "z": z}[
                draw(st.sampled_from(["c", "beta", "B", "w", "z"]))]
            if target.size:
                target.flat[draw(st.integers(0, target.size - 1))] = np.nan
        elif flaw == "huge atom":  # its admissibility integral overflows in mu_i
            z = np.vstack([z[:-1], np.full((1, d), 1e200)])
        elif flaw == "short c":
            c = c[:-1]
        elif flaw == "square B of wrong size":
            B = np.eye(d + 1)
        elif flaw == "matrix weights":
            w = np.ones((len(w), 2))
        elif flaw == "mu count":
            n_mu = draw(st.sampled_from([d - 1, d + 1]))
        elif flaw == "wrong d":
            dim = draw(st.sampled_from([0, -1, d + 1]))
        elif flaw == "non-integer d":
            dim = draw(st.sampled_from([float(d), d + 0.5, True]))
        measures[k] = [w, z]
    mu = [JumpMeasure(w, z) for w, z in measures[1:]]
    mu = mu[:n_mu] + [JumpMeasure.empty(d)] * (n_mu - len(mu))
    return CbiParams(d=dim, c=c, beta=beta, B=B, nu=JumpMeasure(*measures[0]), mu=tuple(mu))


@settings(max_examples=400, deadline=None)
@given(params=candidate_tuples())
def test_derive_refuses_exactly_what_validate_rejects(params):
    report = validate(params)
    try:
        moments.derive(params)
    except InadmissibleError as exc:
        assert not report.admissible
        assert exc.violations == report.violations
    except NumericRangeError:  # an admissible tuple's derived quantities overflow
        assert report.admissible
    else:
        assert report.admissible


def test_degenerate_critical_derives_without_perron_pair():
    params = make_degenerate_critical()
    dq = moments.derive(params)
    assert dq.classification == CRITICAL
    with pytest.raises(ClassificationError):
        dq.perron
    with pytest.raises(ClassificationError):
        dq.cbar
    x, lam = [1.0, 0.5], [0.7, 1.2]
    assert np.all(np.isfinite(moments.mean(params, x, 1.0)))
    assert np.all(np.isfinite(affine.solve_v(params, 1.0, lam).v_final))
    table = generators.discrete_gen_table(params, x, lam, (10, 100))
    assert np.all(np.isfinite(table.raw))
    assert len(simulate.simulate_cbi(params, SMALL_PATHS)) == 3


@pytest.fixture
def admissibility_walks(monkeypatch):
    """The params of every walk over the admissibility rules that `derive`
    makes (`model.admissibility_violations`, as bound in moments)."""
    calls = []
    inner = moments.admissibility_violations

    def counting(params):
        calls.append(params)
        return inner(params)

    monkeypatch.setattr(moments, "admissibility_violations", counting)
    return calls


def _prop31_cli(tmp_path):
    path = tmp_path / "fix_a.json"
    write_params(make_fix_a(), path)
    return cli.run(["prop31", "--params", str(path), "--x", "2", "--lambda", "1",
                    "--n-list", "10,100", "--out", str(tmp_path / "t.csv")])


F = bump([0.5, 0.5], 3.0)
CALLS = {
    "laplace_transform": lambda _: affine.laplace_transform(
        make_jump_d2(), 1.0, [1.0, 0.5], [0.7, 1.2]),
    "discrete_gen_table": lambda _: generators.discrete_gen_table(
        make_fix_a(), [2.0], [1.0], (10, 100)),
    "v_jacobian_fd": lambda _: affine.v_jacobian_fd(make_fix_a(), 1.0),
    "v_hessian_fd": lambda _: affine.v_hessian_fd(make_fix_a(), 1.0, 0, 0, 0),
    "generator_apply": lambda _: generators.generator_apply(make_jump_d2(), F, [0.4, 0.9]),
    "scaled_gen_apply": lambda _: generators.scaled_gen_apply(make_jump_d2(), 10, F, [0.04, 0.09]),
    "simulate_cbi": lambda _: simulate.simulate_cbi(make_jump_d2(), SMALL_PATHS),
    "simulate_scaled_step": lambda _: simulate.simulate_scaled_step(make_jump_d2(), 2, SMALL_PATHS),
    "cli_prop31": _prop31_cli,
}


@pytest.mark.parametrize("name", CALLS)
def test_public_call_validates_once(name, admissibility_walks, tmp_path):
    CALLS[name](tmp_path)
    assert len(admissibility_walks) == 1


def test_no_model_is_kept_between_calls(admissibility_walks):
    # the same CbiParams object twice: each call walks the rules again, so
    # no call's work depends on the calls before it
    params = make_jump_d2()
    first = moments.mean(params, [1.0, 0.5], 1.0)
    second = moments.mean(params, [1.0, 0.5], 1.0)
    assert first.tobytes() == second.tobytes()
    assert admissibility_walks == [params, params]


@pytest.fixture
def spectral_calls(monkeypatch):
    """How often `matops.spectral` and `matops.is_irreducible` run."""
    calls = {"spectral": 0, "is_irreducible": 0}
    for name in calls:
        inner = getattr(matops, name)

        def counting(A, name=name, inner=inner):
            calls[name] += 1
            return inner(A)

        monkeypatch.setattr(matops, name, counting)
    return calls


def test_perron_reuses_the_classification(spectral_calls):
    dq = moments.derive(make_d2_critical())
    assert spectral_calls == {"spectral": 0, "is_irreducible": 0}
    for _ in range(2):
        assert dq.spectral.spectral_abscissa == pytest.approx(0.0, abs=1e-12)
        assert dq.classification == CRITICAL
        assert_close(dq.perron.u_right, [0.5, 0.5], 1e-12)
        assert dq.cbar.shape == (2, 2)
    assert spectral_calls == {"spectral": 1, "is_irreducible": 1}


LAZY_CALLS = {
    "mean": lambda p: moments.mean(p, [1.0, 0.5], 1.0),
    "variance_no_immigration": lambda p: moments.variance_no_immigration(
        p.without_immigration(), [1.0, 0.5], 1.0),
    "v_hessian_limit": lambda p: affine.v_hessian_limit(p, 1.0, 0, 1, 0),
    "discrete_gen_limit": lambda p: generators.discrete_gen_limit(p, [1.0, 0.5], [0.7, 1.2]),
    "scaled_gen_limit": lambda p: generators.scaled_gen_limit(p, F, [0.4, 0.9]),
    "generator_apply": lambda p: generators.generator_apply(p, F, [0.4, 0.9]),
}


@pytest.mark.parametrize("name", LAZY_CALLS)
@pytest.mark.parametrize("make", [make_jump_d2, make_d2_critical])
def test_calls_that_need_no_classification_compute_none(name, make, spectral_calls):
    assert np.all(np.isfinite(LAZY_CALLS[name](make())))
    assert spectral_calls == {"spectral": 0, "is_irreducible": 0}


def test_eigenvalue_failure_reaches_only_the_calls_that_classify(monkeypatch, tmp_path, capsys):
    # derive computes no spectrum, so a failing eigenvalue solver stops
    # `cbi derive` (exit 3, as a solver error) and not the mean
    def failing(A):
        raise SolverError("eigenvalue computation did not converge: patched")

    monkeypatch.setattr(matops, "spectral", failing)
    params = make_d2_critical()
    path = tmp_path / "d2_critical.json"
    write_params(params, path)
    assert cli.run(["derive", "--params", str(path)]) == cli.EXIT_SOLVER
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "solver error: eigenvalue computation did not converge: patched\n"
    assert np.all(np.isfinite(moments.mean(params, [1.0, 0.5], 1.0)))


def test_a_finite_model_whose_entries_overflow_in_sum_derives():
    # the sum over every derived entry is inf; each entry is finite
    beta = np.array([1e308, 1e308])
    dq = moments.derive(CbiParams.no_jumps(c=[1.0, 1.0], beta=beta, B=-np.eye(2)))
    assert dq.beta_tilde.tobytes() == beta.tobytes()
    assert dq.drift_table[2].tobytes() == beta.tobytes()


def test_overflowing_derived_quantities_raise():
    # admissible (nu's integral of 1 ^ |z| is 1e200), but beta_tilde = inf
    params = CbiParams(d=2, c=[1.0, 1.0], beta=[1.0, 1.0], B=-np.eye(2),
                       nu=JumpMeasure([1e200], [[1e200, 1e200]]))
    assert validate(params).admissible
    with pytest.raises(NumericRangeError, match=r"^derived quantities \(btilde, beta_tilde, "
                       r"C_k, kappa\) overflowed the floating-point range$"):
        moments.derive(params)
