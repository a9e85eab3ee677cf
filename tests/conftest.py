"""Shared fixtures: grids, chart metrics, and estimator runs that several
test modules reuse.  Everything heavy is session-scoped so the full suite
builds each object once."""

import numpy as np
import pytest

from relyamabe import (
    BergerParams,
    HopfGrid,
    berger_scalar_closed,
    chart_metric,
    estimate,
    su2_structure_constants,
)

# Closed-form targets used across modules.
ROUND_ENERGY = 6.0 * np.pi ** (4.0 / 3.0)  # = 6 * (pi^2)^(2/3)


def berger_energy(s: float, t: float) -> float:
    """Continuum energy of the (s, t) metric on the hemisphere:
    R * vol^(2/3) with vol = pi^2 sqrt(st)."""
    p = BergerParams(s, t)
    return berger_scalar_closed(p) * (np.pi**2 * np.sqrt(s * t)) ** (2.0 / 3.0)


def perturbed_start(grid: HopfGrid, k: int = 1) -> np.ndarray:
    """The k-th of a stream of positive low-frequency perturbations of the
    constant drawn from seed 0, flattened: a non-constant descent start."""
    e, x1, x2 = grid.meshes()
    rng = np.random.default_rng(0)
    for _ in range(k):
        amp = rng.uniform(0.05, 0.3, size=4)
        ph = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (
        1.0
        + amp[0] * np.cos(x1)
        + amp[1] * np.cos(2.0 * e)
        + amp[2] * np.sin(x1) * np.cos(x2 + ph[0])
        + amp[3] * np.cos(2.0 * x2 + ph[1]) * np.sin(e)
    ).reshape(-1)


@pytest.fixture(scope="session")
def frame():
    return su2_structure_constants()


@pytest.fixture(scope="session")
def grid8():
    return HopfGrid.cube(8)


@pytest.fixture(scope="session")
def grid16():
    return HopfGrid.cube(16)


@pytest.fixture(scope="session")
def grid32():
    return HopfGrid.cube(32)


@pytest.fixture(scope="session")
def round16(grid16):
    return chart_metric(grid16, BergerParams(1.0, 1.0))


@pytest.fixture(scope="session")
def round32(grid32):
    return chart_metric(grid32, BergerParams(1.0, 1.0))


@pytest.fixture(scope="session")
def berger13_16(grid16):
    return chart_metric(grid16, BergerParams(1.0, 3.0))


@pytest.fixture(scope="session")
def berger13_32(grid32):
    return chart_metric(grid32, BergerParams(1.0, 3.0))


@pytest.fixture(scope="session")
def berger135_32(grid32):
    return chart_metric(grid32, BergerParams(1.0, 3.5))


@pytest.fixture(scope="session")
def berger24_16(grid16):
    return chart_metric(grid16, BergerParams(2.0, 4.0))


@pytest.fixture(scope="session")
def berger24_32(grid32):
    return chart_metric(grid32, BergerParams(2.0, 4.0))


@pytest.fixture(scope="session")
def est_round32(round32):
    return estimate(round32, 6.0)


@pytest.fixture(scope="session")
def est_round16(round16):
    return estimate(round16, 6.0)


@pytest.fixture(scope="session")
def est_berger135_32(berger135_32):
    return estimate(berger135_32, 1.0)
