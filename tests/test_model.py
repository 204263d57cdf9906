import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cbi.cli import _load_params
from cbi.errors import InadmissibleError
from cbi.model import CbiParams, JumpMeasure, validate
from cbi.moments import derive

from conftest import make_fix_a, make_jump_d2, make_jump_mixed, make_many_atoms, write_params


def test_trivial_no_jump_model_is_admissible():
    rep = validate(make_fix_a())
    assert rep.admissible
    assert rep.violations == []
    assert rep.moment_order_ok == {1: True, 2: True, 4: True}


def test_not_essentially_nonnegative_is_rejected():
    params = CbiParams.no_jumps(c=[1.0, 1.0], beta=[0.0, 0.0],
                                B=[[0.0, -1.0], [1.0, 0.0]])
    rep = validate(params)
    assert not rep.admissible
    assert any("essentially non-negative" in v for v in rep.violations)
    assert any("(1,2)" in v for v in rep.violations)


def test_single_atom_tail_integral():
    params = CbiParams(d=1, c=[0.0], beta=[0.0], B=[[-1.0]],
                       mu=(JumpMeasure.from_atoms([(1.0, [2.0])]),))
    rep = validate(params)
    assert rep.admissible
    assert rep.computed_integrals["mu[1].norm1_tail"] == pytest.approx(2.0, abs=0)


def test_structural_problems_reported_not_raised():
    bad_weight = CbiParams(d=1, c=[1.0], beta=[0.0], B=[[0.0]],
                           mu=(JumpMeasure(weights=[-1.0], points=[[1.0]]),))
    rep = validate(bad_weight)
    assert not rep.admissible
    assert any("non-positive weight" in v for v in rep.violations)

    at_origin = CbiParams(d=1, c=[1.0], beta=[0.0], B=[[0.0]],
                          nu=JumpMeasure(weights=[1.0], points=[[0.0]]))
    rep = validate(at_origin)
    assert not rep.admissible
    assert any("outside U_d" in v for v in rep.violations)

    wrong_count = CbiParams(d=2, c=[1.0, 1.0], beta=[0.0, 0.0],
                            B=[[0.0, 0.0], [0.0, 0.0]],
                            mu=(JumpMeasure.empty(2),))
    rep = validate(wrong_count)
    assert not rep.admissible
    assert any("exactly d=2" in v for v in rep.violations)


@pytest.mark.parametrize("measures,message", [
    ({"mu": (JumpMeasure(weights=[1.0], points=[[1.0, 0.0, 0.0]]), JumpMeasure.empty(2))},
     "mu[1]: atom points must lie in R^2, got shape (1, 3)"),
    ({"nu": JumpMeasure(weights=[1.0, 1.0], points=[[1.0, 0.0]])},
     "nu: 2 weights but 1 points"),
])
def test_malformed_measure_is_a_violation(measures, message):
    params = CbiParams(d=2, c=[1.0, 1.0], beta=[0.0, 0.0], B=np.zeros((2, 2)), **measures)
    rep = validate(params)
    assert not rep.admissible
    assert message in rep.violations


@pytest.mark.parametrize("d", [2.7, True, 2.0])
def test_non_integer_d_is_a_violation(d):
    n = 1 if d is True else 2
    params = CbiParams(d=d, c=[1.0] * n, beta=[0.0] * n, B=np.zeros((n, n)))
    assert params.d is d
    assert validate(params).violations == [f"d must be a positive integer, got {d}"]
    with pytest.raises(InadmissibleError):
        derive(params)


def test_numpy_integer_d_derives():
    dq = derive(CbiParams(d=np.int64(2), c=[1.0, 1.0], beta=[0.0, 0.0], B=np.zeros((2, 2))))
    assert dq.params.d == 2 and dq.btilde.shape == (2, 2)


def test_negative_vectors_rejected():
    rep = validate(CbiParams.no_jumps(c=[-1.0], beta=[0.0], B=[[0.0]]))
    assert not rep.admissible
    rep = validate(CbiParams.no_jumps(c=[1.0], beta=[-0.5], B=[[0.0]]))
    assert not rep.admissible


def test_validation_is_deterministic():
    params = make_jump_mixed()
    r1, r2 = validate(params), validate(params)
    assert r1.admissible == r2.admissible
    assert r1.computed_integrals == r2.computed_integrals
    assert r1.violations == r2.violations


def test_integrals_match_loop_oracle():
    for params in (make_jump_d2(), make_many_atoms()):
        rep = validate(params)
        # independent plain-Python summation over atoms
        tail1 = sum(w * np.linalg.norm(z) for w, z in zip(params.nu.weights, params.nu.points)
                    if np.linalg.norm(z) >= 1.0)
        assert rep.computed_integrals["nu.norm1_tail"] == pytest.approx(tail1, rel=1e-14, abs=0.0)
        for i, m in enumerate(params.mu):
            adm = sum(w * (min(np.linalg.norm(z), np.linalg.norm(z) ** 2)
                           + sum(z[j] for j in range(params.d) if j != i))
                      for w, z in zip(m.weights, m.points))
            assert rep.computed_integrals[f"mu[{i + 1}].admissibility"] == \
                pytest.approx(adm, rel=1e-14, abs=0.0)

@pytest.mark.parametrize("which", ["nu", "mu"])
def test_empty_measure_of_any_point_width_is_the_empty_measure(which):
    def model(empty):
        jumps = {"nu": empty} if which == "nu" else {"mu": (empty, JumpMeasure.empty(2))}
        return CbiParams(d=2, c=[1.0, 1.0], beta=[0.0, 0.0], B=[[-1.0, 0.5], [0.5, -1.0]],
                         **jumps)

    empty = JumpMeasure(weights=[], points=[])
    assert empty.points.shape == (0, 1)  # not (0, d)
    loose = model(empty)
    tidy = model(JumpMeasure.empty(2))
    rep, ref = validate(loose), validate(tidy)
    assert rep.admissible and rep.violations == []
    assert rep.moment_order_ok == ref.moment_order_ok == {1: True, 2: True, 4: True}
    assert len(rep.computed_integrals) == 15
    assert rep.computed_integrals == ref.computed_integrals
    dq, dq_ref = derive(loose), derive(tidy)
    assert dq.classification == dq_ref.classification == "subcritical"
    assert np.array_equal(dq.btilde, dq_ref.btilde)
    assert dq.atom_points.shape == dq_ref.atom_points.shape == (0, 2)


def test_overflowing_nu_tail_leaves_mu_integrals_finite():
    base = make_jump_d2()
    params = CbiParams(d=2, c=base.c, beta=base.beta, B=base.B,
                       nu=JumpMeasure.from_atoms([(0.5, [1e100, 1.0])]), mu=base.mu)
    rep = validate(params)
    assert rep.admissible
    assert rep.computed_integrals["nu.norm4_tail"] == np.inf
    assert rep.moment_order_ok == {1: True, 2: True, 4: False}
    mu_vals = [v for k, v in rep.computed_integrals.items() if k.startswith("mu[")]
    assert len(mu_vals) == 10 and np.all(np.isfinite(mu_vals))


def test_violations_list_each_measure_in_turn():
    params = CbiParams(d=2, c=[1.0, 1.0], beta=[0.0, 0.0], B=[[-1.0, 0.0], [0.0, -1.0]],
                       nu=JumpMeasure.from_atoms([(0.5, [-1.0, 1.0])]),
                       mu=(JumpMeasure.from_atoms([(1e10, [1e300, 0.0])]),
                           JumpMeasure.from_atoms([(-0.5, [0.0, 1.0])])))
    rep = validate(params)
    assert rep.violations == [
        "nu: atom point with negative coordinate (support must be in R_+^d)",
        "mu[1]: admissibility integral is not finite",
        "mu[2]: atom 1 has non-positive weight -0.5",
    ]
    assert rep.moment_order_ok == {1: False, 2: False, 4: False}
    assert list(rep.computed_integrals) == [
        "mu[1].mass", "mu[1].admissibility",
        "mu[1].norm1_tail", "mu[1].norm2_tail", "mu[1].norm4_tail"]



def test_violations_keep_measure_order_across_kinds_of_flaw():
    # one tuple, three kinds of flaw: a numeric one in nu, a malformed point
    # width in mu[1] and an overflowing admissibility integral in mu[2];
    # validate's report and derive's error list them in the walk's order
    params = CbiParams(d=2, c=[1.0, 1.0], beta=[0.0, 0.0], B=[[-1.0, 0.0], [0.0, -1.0]],
                       nu=JumpMeasure.from_atoms([(0.5, [np.nan, 1.0])]),
                       mu=(JumpMeasure(weights=[0.3], points=[[0.1, 0.2, 0.3]]),
                           JumpMeasure.from_atoms([(1e10, [0.0, 1e300])])))
    expected = [
        "nu: non-finite atom data",
        "mu[1]: atom points must lie in R^2, got shape (1, 3)",
        "mu[2]: admissibility integral is not finite",
    ]
    rep = validate(params)
    assert rep.violations == expected
    assert rep.moment_order_ok == {1: False, 2: False, 4: False}
    assert list(rep.computed_integrals) == [
        "mu[2].mass", "mu[2].admissibility",
        "mu[2].norm1_tail", "mu[2].norm2_tail", "mu[2].norm4_tail"]
    assert rep.computed_integrals["mu[2].admissibility"] == np.inf
    with pytest.raises(InadmissibleError) as exc:
        derive(params)
    assert exc.value.violations == expected


@given(scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
def test_scaling_nu_weights_scales_nu_integrals(scale):
    base = make_jump_mixed()
    scaled = CbiParams(d=1, c=base.c, beta=base.beta, B=base.B,
                       nu=JumpMeasure(weights=scale * base.nu.weights,
                                      points=base.nu.points),
                       mu=base.mu)
    r0 = validate(base).computed_integrals
    r1 = validate(scaled).computed_integrals
    for key in r0:
        if key.startswith("nu."):
            assert r1[key] == pytest.approx(scale * r0[key], rel=1e-12, abs=0.0)
        else:
            assert r1[key] == r0[key]


def test_params_json_round_trip(tmp_path):
    params = make_jump_d2()
    path = tmp_path / "params.json"
    write_params(params, path)
    loaded = _load_params(str(path))
    assert loaded.d == params.d
    assert np.array_equal(loaded.B, params.B)
    assert np.array_equal(loaded.nu.points, params.nu.points)
    assert np.array_equal(loaded.mu[1].weights, params.mu[1].weights)
    assert validate(loaded).admissible


def test_from_dict_rejects_malformed_document():
    with pytest.raises(ValueError):
        CbiParams.from_dict({"d": 1, "c": [1.0]})
    with pytest.raises(ValueError):
        CbiParams.from_dict({"d": 1, "c": [1.0], "beta": [0.0], "B": [[0.0]],
                             "nu": [{"w": 1.0}], "mu": [[]]})


@pytest.mark.parametrize("doc", [
    {"d": 10**20, "c": [1.0], "beta": [0.0], "B": [[0.0]], "nu": [], "mu": [[]]},
    {"d": -3, "c": [1.0], "beta": [0.0], "B": [[0.0]], "mu": [[]]},
    {"d": 1, "c": 1.0, "beta": 0.0, "B": 0.0, "mu": [[]]},
])
def test_from_dict_sizes_empty_measures_by_c(doc):
    params = CbiParams.from_dict(doc)
    assert params.nu.points.shape == (0, 1)
    assert [m.points.shape for m in params.mu] == [(0, 1)]


def test_params_are_immutable():
    params = make_jump_mixed()
    with pytest.raises(ValueError):
        params.B[0, 0] = 5.0
    with pytest.raises(ValueError):
        params.nu.weights[0] = 2.0
    with pytest.raises(ValueError):
        params.mu[0].points[0, 0] = 9.0


def test_params_copy_caller_arrays():
    base = np.array([[-1.0, 0.5], [0.5, -1.0]])
    w, z = np.array([0.3]), np.array([[1.0, 0.2]])
    params = CbiParams(d=2, c=[1.0, 1.0], beta=[0.0, 0.0], B=base[:],
                       nu=JumpMeasure(weights=w, points=z))
    assert base.flags.writeable and w.flags.writeable and z.flags.writeable
    base[0, 0] = -5.0
    w[0] = 9.0
    z[0, 0] = 9.0
    assert params.B[0, 0] == -1.0
    assert params.nu.weights[0] == 0.3
    assert params.nu.points[0, 0] == 1.0


@pytest.mark.parametrize("doc", [
    {"d": 10**5, "c": [1.0], "beta": [0.0], "B": [[0.0]]},
    {"d": 10**5, "c": [1.0], "beta": [0.0], "B": [[0.0]], "mu": [[]]},
])
def test_huge_d_disagreeing_with_c_allocates_nothing(doc):
    tracemalloc.start()
    try:
        rep = validate(CbiParams.from_dict(doc))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert not rep.admissible
    assert "c must have length d=100000, got shape (1,)" in rep.violations
    assert any("mu must contain exactly d=100000 measures" in v for v in rep.violations)
