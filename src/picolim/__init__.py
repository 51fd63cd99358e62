"""Group-theoretic computation of homotopy invariants for unions of
aspherical spaces glued along normal subgroups.

The package has two engines: exactly enumerated finite groups (built by
coset enumeration from presentations) and free nilpotent quotients with
collection on a basic-commutator basis.  On top of both sit the colimit
formulas (connectivity checking, homotopy and homology quotients), the
tensor presentation with its crossed-module boundary, and the truncated
sphere computations.
"""

__version__ = "0.1.0"
