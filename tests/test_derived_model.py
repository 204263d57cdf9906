"""`moments.derive` as the one admissibility gate: each public call validates
once, and a model whose Perron pair does not exist still serves every
function that does not need it."""
import numpy as np
import pytest

from cbi import affine, cli, generators, matops, moments, simulate
from cbi.errors import ClassificationError
from cbi.moments import CRITICAL
from cbi.testfunctions import bump

from conftest import (assert_close, make_d2_critical, make_degenerate_critical, make_fix_a,
                      make_jump_d2, write_params)

SMALL_PATHS = simulate.PathConfig(x0=[1.0, 0.5], horizon=0.1, dt=0.02, seed=1, n_paths=3)


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
def validate_calls(monkeypatch):
    calls = []
    inner = moments.validate

    def counting(params):
        calls.append(params)
        return inner(params)

    monkeypatch.setattr(moments, "validate", counting)
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
def test_public_call_validates_once(name, validate_calls, tmp_path):
    CALLS[name](tmp_path)
    assert len(validate_calls) == 1


def test_perron_reuses_the_classification(monkeypatch):
    calls = {"spectral": 0, "is_irreducible": 0}
    for name in calls:
        inner = getattr(matops, name)

        def counting(A, name=name, inner=inner):
            calls[name] += 1
            return inner(A)

        monkeypatch.setattr(matops, name, counting)
    pp = moments.derive(make_d2_critical()).perron
    assert_close(pp.u_right, [0.5, 0.5], 1e-12)
    assert calls == {"spectral": 1, "is_irreducible": 1}
