"""wild11: exact arithmetic of elliptic K3 surfaces with an order-11 automorphism.

Computes, with no floating point on any pass/fail path: fixed-point
tallies of the twisted Frobenius maps, the degree-20 characteristic
polynomial of Frobenius, Picard-number upper bounds via cyclotomic root
detection, formal-Brauer heights via Newton polygons, Kodaira fiber types
with Shioda-Tate lattice bookkeeping, and the symbolic Fermat-cover
identity of the uniform model.
"""

__version__ = "0.1.0"

from importlib import import_module

# Each public name and the submodule that defines it.  A name is imported on
# first access (PEP 562), so a command compiles only the modules it runs.
_EXPORTS = {
    name: module
    for module, names in (
        ("analysis", (
            "INFINITE_HEIGHT", "AnalysisReport", "analyze_charpoly", "height_from_newton",
            "normalize", "picard_upper_bound", "structural_checks",
        )),
        ("cyclotomic", ("EigenTraces", "galois_apply", "inverse_dft")),
        ("delsarte", ("supersingular_possible", "verify_cover_identity")),
        ("equivariant", (
            "CharPolyResult", "FixTally", "assemble_charpoly", "fixed_locus_tally",
            "traces_from_tally",
        )),
        ("errors", ("CapabilityError", "InconsistencyError", "ReducibleFiberError", "Wild11Error")),
        ("ffield", ("FieldSpec", "trace_to_base")),
        ("kodaira", (
            "KodairaFiber", "LatticeSummary", "artin_invariant", "classify_fibers",
            "trivial_lattice",
        )),
        ("polynomials", (
            "cyclotomic_poly", "divides_with_multiplicity", "newton_polygon", "palindrome_sign",
        )),
        ("surface", (
            "INFINITY", "FiberPlace", "WeierstrassModel", "c4_delta", "make_model",
            "singular_places", "surface_count",
        )),
    )
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
