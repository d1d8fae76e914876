"""frobex: verify and refute Frobenius-extension properties of quantum
algebras graded or filtered by totally ordered abelian groups.

The package certifies quantum affine space over its ell-centre, transfers
the property through filtered lifts and Rees algebras on a q-Weyl fixture,
and refutes the graded quantum Grassmannian Gr(2,4) through its degree
census.  All arithmetic is exact, over prime fields with a distinguished
root of unity.
"""

from .algcore import (
    BasedAlgebra,
    Element,
    RootField,
    default_prime,
    filtered_degree,
    gr_of,
    multiply,
    parse_algebra_config,
)
from .errors import (
    AlgebraDefinitionError,
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    DomainError,
    FrobexError,
    HomogeneityError,
    UnsupportedStructure,
)
from .frobenius import (
    CentralFreeExtension,
    FrobeniusCertificate,
    GramStatus,
    ProjectionForm,
    det_is_unit,
    ell_centre_extension,
    gram_matrix,
    lift_form,
    nakayama_on_generators,
    reduce_at_point,
    verify_frobenius,
)
from .grassmannian import (
    GrGrassmannian,
    degree_census,
    ell_centre_module_basis,
    verify_freeness_window,
)
from .grpdeg import (
    DegreeMultiset,
    GroupElement,
    in_positive_cone,
    multiset_symmetry_witness,
)
from .qas import QuantumAffineSpace, quantum_weyl
from .rees import cone_reduction, rees_extension, rees_of

__version__ = "0.1.0"
