from dataclasses import replace

import numpy as np
import pytest

from windbridge.estimation import EmpiricalCopulaSampler
from windbridge.pipeline import build_model_doc, charge_model_from_doc
from windbridge.power import (
    DEFAULT_TURBINE,
    PowerSeries,
    RampPolicy,
    apply_ramp_limit,
    generate_synthetic_wind,
    wind_to_power,
)
from windbridge.segmentation import estimate_kernel, extract_segments

LIMIT = 0.02
CAPACITY = DEFAULT_TURBINE.rated_capacity


class DegenerateSampler(EmpiricalCopulaSampler):
    """Always returns one fixed triplet: a stand-in for a fitted sampler.

    A copula over one-point marginals, so it draws as a fitted sampler does
    (one round of at least 64 candidates).  Its support is narrowed to a box
    around the point, which need not lie in the attainable support it is
    given.
    """

    def __init__(self, support, rho: float, tau: int, h: float):
        # at rho, h_max(rho, tau) = h + limit, the box's ceiling at the point
        box = replace(
            support, rho_min=rho, rho_max=rho, h_offset=h + (tau + 1) * support.limit - rho
        )
        super().__init__(box, np.eye(3), ([rho], [tau], [h]), n_obs=1)


@pytest.fixture(scope="session")
def corrected_series():
    """20k hours of synthetic wind power, ramp-corrected at 1% of capacity."""
    speeds = generate_synthetic_wind(20_000, 2.0, 8.0, 0.9, seed=42)
    series = PowerSeries(generated=wind_to_power(speeds, DEFAULT_TURBINE))
    return apply_ramp_limit(series, RampPolicy(limit=LIMIT), capacity=CAPACITY)


@pytest.fixture(scope="session")
def renewal_data(corrected_series):
    """Per-step states and the segment table of ``corrected_series``."""
    return extract_segments(corrected_series)


@pytest.fixture(scope="session")
def fitted_kernel(renewal_data):
    _, table = renewal_data
    done = ~table.censored
    return estimate_kernel(table.i[done], table.j[done], table.x[done])


@pytest.fixture(scope="session")
def fitted_model(renewal_data):
    _, table = renewal_data
    doc = build_model_doc(table, limit=LIMIT, capacity=CAPACITY, seed_key=(7,))
    return charge_model_from_doc(doc)
