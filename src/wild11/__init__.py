"""wild11: exact arithmetic of elliptic K3 surfaces with an order-11 automorphism.

Computes, with no floating point on any pass/fail path: fixed-point
tallies of the twisted Frobenius maps, the degree-20 characteristic
polynomial of Frobenius, Picard-number upper bounds via cyclotomic root
detection, formal-Brauer heights via Newton polygons, Kodaira fiber types
with Shioda-Tate lattice bookkeeping, and the symbolic Fermat-cover
identity of the uniform model.
"""

__version__ = "0.1.0"
