import json
import math

import numpy as np
import pytest

from cbi.model import CbiParams, JumpMeasure


def make_fix_a() -> CbiParams:
    """d=1, c=1, beta=1, B=0, no jumps: v(t,lam) = lam/(1+lam t)."""
    return CbiParams.no_jumps(c=[1.0], beta=[1.0], B=[[0.0]])


def make_d2_critical() -> CbiParams:
    """d=2 critical fixture: btilde = [[-1,1],[1,-1]], u_right = (1/2,1/2)."""
    return CbiParams.no_jumps(c=[1.0, 1.0], beta=[1.0, 0.0],
                              B=[[-1.0, 1.0], [1.0, -1.0]])


def make_jump_mixed() -> CbiParams:
    """d=1 with immigration and branching atoms (subcritical)."""
    return CbiParams(
        d=1, c=[0.5], beta=[0.3], B=[[-1.0]],
        nu=JumpMeasure.from_atoms([(0.7, [1.0]), (0.2, [0.4])]),
        mu=(JumpMeasure.from_atoms([(0.5, [2.0]), (0.3, [0.5])]),))


def make_jump_d2() -> CbiParams:
    """d=2 with atoms in every measure; exercises cross terms."""
    return CbiParams(
        d=2, c=[0.3, 0.6], beta=[0.2, 0.1], B=[[-0.8, 0.4], [0.3, -0.9]],
        nu=JumpMeasure.from_atoms([(0.5, [0.5, 0.2])]),
        mu=(JumpMeasure.from_atoms([(0.4, [1.0, 0.3])]),
            JumpMeasure.from_atoms([(0.6, [0.2, 0.7]), (0.1, [2.0, 1.0])])))


def make_jump_d3() -> CbiParams:
    """d=3, subcritical, with three or more atoms in every measure: every
    atom sum adds several terms, so a change in summation order shows.
    scripts/digest.py runs it as jump_d3 in the library and the CLI lines."""
    return CbiParams(
        d=3, c=[0.4, 0.25, 0.55], beta=[0.3, 0.1, 0.2],
        B=[[-1.3, 0.3, 0.2], [0.4, -1.1, 0.1], [0.2, 0.35, -1.2]],
        nu=JumpMeasure.from_atoms([(0.3, [0.41, 0.13, 0.27]), (0.2, [1.37, 0.0, 0.29]),
                                   (0.11, [0.23, 0.61, 1.07]), (0.07, [0.0, 0.0, 1.93])]),
        mu=(JumpMeasure.from_atoms([(0.47, [0.31, 0.17, 0.0]), (0.19, [1.73, 0.11, 0.43]),
                                    (0.13, [0.07, 0.89, 0.33])]),
            JumpMeasure.from_atoms([(0.29, [0.0, 0.63, 0.21]), (0.17, [0.53, 2.21, 0.13]),
                                    (0.23, [0.19, 0.11, 0.71])]),
            JumpMeasure.from_atoms([(0.21, [0.13, 0.37, 0.83]), (0.11, [0.41, 0.0, 1.61]),
                                    (0.31, [0.59, 0.23, 0.17])])))



def make_many_atoms() -> CbiParams:
    """d=3, subcritical, with 40 atoms in every measure drawn from a fixed
    seed: each measure's atom sum runs past the block width of a BLAS dot
    kernel, so a sum that a blocked kernel splits differently shows."""
    rng = np.random.default_rng(2029)

    def measure():
        return JumpMeasure(rng.uniform(0.001, 0.02, 40), rng.uniform(0.0, 1.5, (40, 3)))

    return CbiParams(d=3, c=[0.3, 0.2, 0.5], beta=[0.1, 0.4, 0.2],
                     B=[[-2.0, 0.3, 0.1], [0.2, -1.8, 0.4], [0.1, 0.3, -2.2]],
                     nu=measure(), mu=(measure(), measure(), measure()))

def make_branching_jump() -> CbiParams:
    """Pure branching (no immigration) with a jump atom."""
    return CbiParams(
        d=1, c=[1.0], beta=[0.0], B=[[-0.5]],
        mu=(JumpMeasure.from_atoms([(0.4, [1.5])]),))


def make_degenerate_critical() -> CbiParams:
    """Critical and irreducible, but the left Perron vector is (1, 1e-300)
    up to scale, which rounds to a vector with a zero entry: derive succeeds
    while the Perron pair (and so cbar) raises ClassificationError."""
    return CbiParams.no_jumps(c=[1.0, 1.0], beta=[0.5, 0.0],
                              B=[[-1e-300, 1e-300], [1.0, -1.0]])


ALL_FIXTURES = {
    "fix_a": make_fix_a,
    "d2_critical": make_d2_critical,
    "jump_mixed": make_jump_mixed,
    "jump_d2": make_jump_d2,
    "jump_d3": make_jump_d3,
    "branching_jump": make_branching_jump,
}


@pytest.fixture
def fix_a() -> CbiParams:
    return make_fix_a()


@pytest.fixture
def d2_critical() -> CbiParams:
    return make_d2_critical()


@pytest.fixture
def jump_mixed() -> CbiParams:
    return make_jump_mixed()


@pytest.fixture
def jump_d2() -> CbiParams:
    return make_jump_d2()


@pytest.fixture
def jump_d3() -> CbiParams:
    return make_jump_d3()



@pytest.fixture
def many_atoms() -> CbiParams:
    return make_many_atoms()

@pytest.fixture
def branching_jump() -> CbiParams:
    return make_branching_jump()


def write_params(params: CbiParams, path) -> None:
    """Write `params` as the JSON parameter document the CLI reads."""
    def measure(m: JumpMeasure) -> list[dict]:
        return [{"weight": float(w), "z": z.tolist()} for w, z in zip(m.weights, m.points)]

    path.write_text(json.dumps({"d": params.d, "c": params.c.tolist(),
                                "beta": params.beta.tolist(), "B": params.B.tolist(),
                                "nu": measure(params.nu),
                                "mu": [measure(m) for m in params.mu]}))


def assert_close(a, b, tol, msg=""):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    err = float(np.max(np.abs(a - b)))
    assert err <= tol, f"{msg} max|diff| = {err:.3e} > {tol:.1e}"


def mc_z(samples, exact) -> float:
    """The largest |column mean - exact| over the columns of `samples`
    (axis 0 runs over the n paths, any further axes index the columns), in
    units of the column's sample standard error std(ddof=1) / sqrt(n). In
    the normal limit a correct column fails a 3-SE gate, `mc_z(...) <= 3`,
    for 0.27 % of seeds (two-sided), so k columns fail it at up to k times that."""
    se = samples.std(axis=0, ddof=1) / math.sqrt(len(samples))
    return float(np.max(np.abs(samples.mean(axis=0) - exact) / se))


def mc_var_z(samples, exact) -> float:
    """|sample variance - exact| of the 1-d `samples`, in units of its
    fourth-moment standard error sqrt((m4 - s2^2) / n), with s2 the
    ddof=1 variance and m4 the fourth central sample moment. In the normal
    limit a correct variance fails a 3-SE gate, `mc_var_z(...) <= 3`, for
    0.27 % of seeds (two-sided)."""
    s2 = samples.var(ddof=1)
    m4 = np.mean((samples - samples.mean()) ** 4)
    return float(abs(s2 - exact) / math.sqrt(max(m4 - s2**2, 0.0) / len(samples)))
