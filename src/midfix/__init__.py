"""Middle fixpoints at desk scale.

Four subsystems: exact and numeric mu/nu on lattices (`lattice`),
polynomial-functor term machinery (`signature`), the coalgebra-algebra
adjunction with its colimit/limit constructions (`fixcat`), and the
dagger coincidence on finite relations (`dagger`).  `specs` holds the
JSON schemas, `checks` the one way a report states its checks, and `cli`
the command-line front end.
"""

from . import dagger, fixcat, lattice, signature, specs

__all__ = ["dagger", "fixcat", "lattice", "signature", "specs"]
