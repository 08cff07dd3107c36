"""The verification battery on a fixed grid of unpicked problems.

Every config of the grid is drawn from ``default_rng(seed)`` with the seed
a plain ``range``: dims 2-8, real-symmetric and complex-Hermitian
operators, alpha 1 and 0.1, on dt 0.05, T 5 and T_hat 6. ``cli.run_verify``
runs each, and every check of its ``verify.json`` but the gradient must
pass. The gradient's purely relative gate misses where a component of the
gradient lies near zero, and is left to a per-component error estimate of
the finite-difference oracle; its value is not asserted here.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from qoct import cli
from conftest import random_hermitian, random_state, random_symmetric
from test_cli import as_pairs_matrix, as_pairs_vector

DIMS = range(2, 9)
ALPHAS = (1.0, 0.1)
SEEDS = range(3)
GRID = [
    (dim, complex_, alpha, seed)
    for dim in DIMS for complex_ in (False, True) for alpha in ALPHAS for seed in SEEDS
]


def survey_config(dim: int, complex_: bool, alpha: float, seed: int) -> dict:
    """The config of one grid point: h0, mu, the observable and psi0 drawn in that order."""
    rng = np.random.default_rng(seed)
    draw = random_hermitian if complex_ else random_symmetric
    h0, mu, observable = (as_pairs_matrix(draw(rng, dim).matrix) for _ in range(3))
    return {
        "dimension": dim,
        "h0": h0,
        "mu": mu,
        "observable": observable,
        "psi0": as_pairs_vector(random_state(rng, dim).amplitudes),
        "T": 5.0,
        "T_hat": 6.0,
        "dt": 0.05,
        "alpha": alpha,
        "eps_ref": {"constant": 0.0},
        "seed": seed,
    }


@pytest.mark.parametrize(
    "dim, complex_, alpha, seed",
    GRID,
    ids=[f"dim{d}-{'complex' if c else 'real'}-alpha{a}-seed{s}" for d, c, a, s in GRID],
)
def test_every_check_but_the_gradient_passes(tmp_path, dim, complex_, alpha, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(survey_config(dim, complex_, alpha, seed)), encoding="utf-8")
    code = cli.run_verify(config, tmp_path / "out")
    assert code in (cli.EXIT_OK, cli.EXIT_TOLERANCE)
    report = json.loads((tmp_path / "out" / "verify.json").read_text(encoding="utf-8"))
    checks = report["checks"]
    # the conjugate identity needs real operators: run_verify skips it otherwise
    assert ("conjugate_independence" in checks) == (not complex_)
    failed = sorted(name for name, ok in checks.items() if name != "gradient" and not ok)
    assert failed == []
    # with every other check passing, the exit code follows the gradient's
    assert (code == cli.EXIT_OK) == checks["gradient"]
