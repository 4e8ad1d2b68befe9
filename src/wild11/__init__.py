"""wild11: exact arithmetic of elliptic K3 surfaces with an order-11 automorphism.

Computes, with no floating point on any pass/fail path: fixed-point
tallies of the twisted Frobenius maps, the degree-20 characteristic
polynomial of Frobenius, Picard-number upper bounds via cyclotomic root
detection, formal-Brauer heights via Newton polygons, Kodaira fiber types
with Shioda-Tate lattice bookkeeping, and the symbolic Fermat-cover
identity of the uniform model.
"""

__version__ = "0.1.0"

from .analysis import (
    INFINITE_HEIGHT,
    AnalysisReport,
    analyze_charpoly,
    height_from_newton,
    normalize,
    picard_upper_bound,
    structural_checks,
)
from .cyclotomic import (
    CycNum,
    EigenTraces,
    galois_apply,
    inverse_dft,
)
from .delsarte import supersingular_possible, verify_cover_identity
from .equivariant import (
    CharPolyResult,
    FixTally,
    assemble_charpoly,
    fixed_locus_tally,
    traces_from_tally,
)
from .errors import CapabilityError, InconsistencyError, ReducibleFiberError, Wild11Error
from .ffield import (
    FieldSpec,
    smallest_nonresidue,
    trace_to_base,
)
from .kodaira import (
    KodairaFiber,
    LatticeSummary,
    artin_invariant,
    classify_fibers,
    trivial_lattice,
)
from .polynomials import (
    IntPoly,
    cyclotomic_poly,
    divides_with_multiplicity,
    newton_polygon,
    palindrome_sign,
)
from .surface import (
    INFINITY,
    FiberPlace,
    WeierstrassModel,
    c4_delta,
    fiber_count,
    make_model,
    singular_places,
    surface_count,
)

__all__ = [
    "AnalysisReport",
    "CapabilityError",
    "CharPolyResult",
    "CycNum",
    "EigenTraces",
    "FieldSpec",
    "FiberPlace",
    "FixTally",
    "INFINITE_HEIGHT",
    "INFINITY",
    "InconsistencyError",
    "IntPoly",
    "KodairaFiber",
    "LatticeSummary",
    "ReducibleFiberError",
    "WeierstrassModel",
    "Wild11Error",
    "analyze_charpoly",
    "artin_invariant",
    "assemble_charpoly",
    "c4_delta",
    "classify_fibers",
    "cyclotomic_poly",
    "divides_with_multiplicity",
    "fiber_count",
    "fixed_locus_tally",
    "galois_apply",
    "height_from_newton",
    "inverse_dft",
    "make_model",
    "newton_polygon",
    "normalize",
    "palindrome_sign",
    "picard_upper_bound",
    "singular_places",
    "smallest_nonresidue",
    "structural_checks",
    "supersingular_possible",
    "surface_count",
    "trace_to_base",
    "traces_from_tally",
    "trivial_lattice",
    "verify_cover_identity",
]
