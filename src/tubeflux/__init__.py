"""Minimal tubes over annuli: synthesis, flow vectors, and ring modules.

The package builds minimal immersions of the symmetric annulus K_R from
holomorphic Weierstrass data, measures their flow vector, tilt angle and
life-time, and compares both against the closed-form bounds; a separate
layer estimates conformal modules of ring domains and constructs the
two-slit candidate maps that are expected to saturate the annulus bound.
"""

from .contour import Annulus, HoloFn, ProbeReport, a0, a0_pair, \
    circle_integral, laurent_coeff, path_integral, univalence_probe
from .elliptic import EllipticParams, LatticePointError, theta1, \
    theta1_prime, theta3, theta3_prime, wp, wp_prime
from .expr import ExprError, ExprSyntaxError
from .flux import FluxVector, Lifetime, LifetimeReport, flux_vector, \
    lifetime, lifetime_bound, lifetime_report
from .modulus import CrossingWitness, ModulusEstimate, RingDomain, \
    circle_family_module, comparison_ring_module, \
    crossing_witness, grid_module_estimate, joining_family_module, \
    max_log_radius, mobius_to_annulus
from .slitmap import FamilyBalanceError, SlitMapCandidate, SweepRow, \
    boundary_reality, calibrate_candidate, conjecture_sweep, \
    joukowski_family, joukowski_map
from .tubes import MinimalTube, NotATubeError, WeierstrassData, \
    defect_from_means, enneper_F, immerse, period_defect, section_polyline, \
    tube_from_gauss

__version__ = "0.1.0"

__all__ = [
    "Annulus", "HoloFn", "ProbeReport", "a0", "a0_pair", "circle_integral",
    "laurent_coeff", "path_integral", "univalence_probe",
    "EllipticParams", "LatticePointError", "theta1", "theta1_prime",
    "theta3", "theta3_prime", "wp", "wp_prime",
    "ExprError", "ExprSyntaxError",
    "FluxVector", "Lifetime", "LifetimeReport", "flux_vector",
    "lifetime", "lifetime_bound", "lifetime_report",
    "CrossingWitness", "ModulusEstimate", "RingDomain",
    "circle_family_module", "comparison_ring_module",
    "crossing_witness", "grid_module_estimate", "joining_family_module",
    "max_log_radius", "mobius_to_annulus",
    "FamilyBalanceError", "SlitMapCandidate",
    "SweepRow", "boundary_reality",
    "calibrate_candidate", "conjecture_sweep", "joukowski_family",
    "joukowski_map",
    "MinimalTube", "NotATubeError", "WeierstrassData",
    "defect_from_means", "enneper_F", "immerse", "period_defect",
    "section_polyline", "tube_from_gauss",
    "__version__",
]
