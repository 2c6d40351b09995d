"""Exact certificates for point-set genericity, tangent cones of curve
singularities, and conductor formulas checked against brute-force oracles."""

__version__ = "0.1.0"

from .conductor import (ConductorCertificate, NumericalSemigroup,
                        arrangement_certificate, arrangement_conductor_ideal,
                        monomial_conductor, monomial_conductor_certificate,
                        points_conductor_certificate, points_conductor_sigma,
                        semigroup_certificate, symbolic_power)
from .errors import BudgetExceededError, StabilizationError
from .groebner import (Ideal, buchberger, ideal_equal, ideal_intersect,
                       ideal_member, ideal_power, ideal_quotient, normal_form,
                       saturation, spolynomial)
from .points import (PointSet, hilbert_function, is_generic_position,
                     is_generic_t_position, nu, random_point_set)
from .poly import (DEGREVLEX, LEX, BlockOrder, Polynomial, parse_polynomial)
from .scalars import QQ, FieldMismatchError, PrimeField, roots_of_unity
from .tangent_cone import (Branch, BranchCurve, ConeProfile, GermRing,
                           branch_tangent_points, cone_profile, germ_profile,
                           lowest_form_ideal, subalgebra_member)

__all__ = [
    "__version__",
    "QQ", "PrimeField", "FieldMismatchError", "roots_of_unity",
    "Polynomial", "parse_polynomial", "DEGREVLEX", "LEX", "BlockOrder",
    "BudgetExceededError", "StabilizationError",
    "Ideal", "buchberger", "normal_form", "spolynomial", "ideal_member",
    "ideal_equal", "ideal_intersect", "ideal_quotient", "ideal_power",
    "saturation",
    "PointSet", "nu", "hilbert_function",
    "is_generic_position", "is_generic_t_position", "random_point_set",
    "Branch", "BranchCurve", "ConeProfile", "branch_tangent_points",
    "lowest_form_ideal", "cone_profile", "germ_profile",
    "subalgebra_member", "GermRing",
    "ConductorCertificate", "NumericalSemigroup",
    "points_conductor_sigma", "points_conductor_certificate",
    "semigroup_certificate", "monomial_conductor",
    "monomial_conductor_certificate", "arrangement_conductor_ideal",
    "arrangement_certificate", "symbolic_power",
]
