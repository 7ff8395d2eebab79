"""Numerical Liouville CFT: conformal-bootstrap correlators (DOZZ structure
constants x squared conformal blocks integrated over the spectrum) with an
independent Gaussian-multiplicative-chaos Monte Carlo cross-check on the torus.
"""

from .params import CftParams
from .special import UpsilonEvaluator, dedekind_eta, l_ratio, theta1, upsilon
from .virasoro import (
    GramMatrix,
    YoungDiagram,
    conformal_weight,
    kac_weight,
    partitions,
    shapovalov,
    shapovalov_inverse,
)
from .dozz import dozz_constant
from .blocks import BlockSeries, torus_one_point_block
from .free_field import (
    BoundaryField,
    annulus_partition,
    free_annulus_amplitude,
    heat_kernel_K0,
)
from .graphs import AdmissibleGraph, EdgeSpec, MarkedPoint
from .bootstrap import (
    ANNULUS_VERTEX_CONSTANT,
    CorrelatorResult,
    DISK_VERTEX_CONSTANT,
    Quadrature,
    Z_DISK,
    graph_correlator,
    sphere_k_point,
    torus_k_point,
    torus_one_point,
)
from .gmc import (
    McConfig,
    McEstimate,
    TorusGeometry,
    mc_torus_one_point,
    mc_torus_one_point_many,
    torus_det_prefactor,
    torus_green,
)

__version__ = "0.1.0"
