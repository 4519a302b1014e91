"""Exact and numeric tooling for volume-preserving vector fields on
suspension hypersurfaces u*v = f(z1..zn).

The layers, bottom up: exact Gaussian-rational scalars and polynomials
(`scalars`, `poly`, `linalg`), polynomial vector calculus (`fields`),
the suspension surface with its induced volume (`surface`), complete
lifts and their flows (`lifts`), degree-truncated certificates and the
criterion runner (`certify`), the numeric approximation harness
(`approx`), randomized identity suites (`identities`), and the scenario
format, report writers and command line (`scenario`, `report`, `cli`).
"""

__version__ = "0.1.0"

from .certify import (Assumptions, CriterionReport, PairSpec,
                      run_vdp_criterion, semicompat_certificate)
from .fields import VectorField
from .lifts import lift, lifted_flow, spanning_family
from .surface import (SamplingSpec, SuspensionContext, make_suspension,
                      sample_points, surface_point)

__all__ = [
    "Assumptions", "CriterionReport", "PairSpec", "SamplingSpec",
    "SuspensionContext", "VectorField", "__version__", "lift",
    "lifted_flow", "make_suspension", "run_vdp_criterion", "sample_points",
    "semicompat_certificate", "spanning_family", "surface_point",
]
