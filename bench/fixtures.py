"""Parameter fixtures of the benchmark, as parameter-file documents.

Standard library only: the set-up probe imports this module before it
starts its clock, so it must not pull in numpy or the package.
"""

#: d=1, c=1, beta=1, B=0, no jumps. v(t, lam) = lam / (1 + lam t), and the
#: Laplace transform, limit diffusion and step-scaled chain have closed forms.
FIX_A = {"d": 1, "c": [1.0], "beta": [1.0], "B": [[0.0]], "nu": [], "mu": [[]]}

#: d=2 critical and irreducible, no jumps: btilde = [[-1, 1], [1, -1]].
D2_CRITICAL = {"d": 2, "c": [1.0, 1.0], "beta": [1.0, 0.0],
               "B": [[-1.0, 1.0], [1.0, -1.0]], "nu": [], "mu": [[], []]}

#: d=2 subcritical with atoms in every jump measure.
JUMP_D2 = {
    "d": 2, "c": [0.3, 0.6], "beta": [0.2, 0.1], "B": [[-0.8, 0.4], [0.3, -0.9]],
    "nu": [{"weight": 0.5, "z": [0.5, 0.2]}],
    "mu": [[{"weight": 0.4, "z": [1.0, 0.3]}],
           [{"weight": 0.6, "z": [0.2, 0.7]}, {"weight": 0.1, "z": [2.0, 1.0]}]],
}

FIXTURES = {"fix_a": FIX_A, "d2_critical": D2_CRITICAL, "jump_d2": JUMP_D2}


def key(*vectors) -> str:
    """Text key of an input tuple in refs.json, e.g. key([1.0], [0.5, 0.5])."""
    return "|".join(",".join(repr(float(v)) for v in vec) for vec in vectors)


def without_immigration(doc: dict) -> dict:
    """The pure-branching companion: beta = 0 and nu empty."""
    return {**doc, "beta": [0.0] * doc["d"], "nu": []}


# --- Fixed inputs with stored references (see make_refs.py) ---------------

#: Horizons of the moment and limit tables.
MOMENT_T = (0.25, 0.5, 1.0, 2.0)

#: (x, lam) pairs of the discrete-generator limit per fixture; the first pair
#: of each is also a prop31 table of the transforms workload.
DGEN_CASES = {
    "fix_a": (([2.0], [1.0]), ([0.5], [2.0])),
    "d2_critical": (([0.5, 0.5], [1.0, 0.0]), ([1.0, 0.2], [0.3, 0.7])),
    "jump_d2": (([1.0, 0.5], [0.5, 0.5]), ([0.3, 1.2], [1.0, 0.2])),
}

#: Laplace probes of the Monte Carlo checks at horizon MC_T, per fixture.
MC_T = 1.0
MC_PROBES = {
    "fix_a": ([0.5], [2.0]),
    "d2_critical": ([0.5, 0.5], [0.3, 1.2]),
    "jump_d2": ([0.5, 0.5], [1.5, 0.3]),
}

#: Fixtures each workload builds and validates during set-up.
WORKLOAD_FIXTURES = {
    "transforms": ("fix_a", "d2_critical", "jump_d2"),
    "moments": ("fix_a", "d2_critical", "jump_d2"),
    "mc": ("fix_a", "d2_critical", "jump_d2"),
    "cli": ("fix_a", "jump_d2"),
}
