"""Compositional inverses and involutions of permutation polynomials built
from the AGW criterion, over exact GF(p^n) arithmetic.

Every inverse returned here has certified itself over the whole field
(:func:`ppinv.perm_core.certify`) and raises
:class:`ppinv.errors.CertificationFailed` otherwise.
"""

from .errors import PPInvError
from .gf_core import (FieldCtx, build_field, ext_gcd, field_from_json,
                      field_to_json, mu_subgroup, p_power_degree,
                      subfield_elements)
from .poly_expr import (LinearizedPoly, PolyFq, eval_poly, interpolate,
                        linearized, linearized_eval, linearized_inverse,
                        linearized_tabulate, make_poly, parse_poly_expr,
                        print_poly, reduce_mod_field, tabulate)
from .perm_core import (AgwDiagram, CycleType, PermTable, VerificationReport,
                        agw_diagram, agw_verify, as_permutation,
                        brute_inverse, certify, cycle_structure)
from .agw_inverse import (AddFamily, GenericDiagram, HybridScaleFamily,
                          MulClosedForm, MulFamily, NiuFamily, PhiMap,
                          TranslatorFamily, add_family, build_phi_add,
                          build_phi_mul, closed_form_mul,
                          family_from_descriptor, generic_inverse,
                          hybrid_family, invert, invert_additive,
                          invert_hybrid_scale, invert_multiplicative,
                          invert_niu, invert_translator,
                          invert_translator_linear, mul_family, niu_family,
                          niu_forward, translator_family)
from .involution_lab import (CriterionReport, check_add_involution,
                             check_hybrid_involution, check_mul_involution,
                             check_translator_involution, make_kuozhan,
                             make_trace_gadget, make_zero_translator)

__version__ = "0.1.0"
