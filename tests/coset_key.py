"""Reference key of a lattice-sum coset, for the coset tests.

The lattice sums enumerate Plucker rows directly; this key, computed from a
full integer matrix, is what the tests compare those rows against.
"""

import numpy as np


def _sign_canonical(v: tuple[int, ...]) -> tuple[int, ...]:
    for c in v:
        if c != 0:
            return v if c > 0 else tuple(-x for x in v)
    return v


def canonical_coset_form(matrix: np.ndarray) -> tuple:
    """Key of the coset B gamma of `matrix` = gamma, B the integer
    upper-triangular matrices in GL(n, Z).

    Invariant under left multiplication by any such matrix, the group the
    lattice sums quotient by; it changes under lower-unitriangular ones,
    which move the bottom row.  The key is the sign-canonical bottom row
    and, for n = 3, the sign-canonical cross product of the last two rows.
    """
    m = np.asarray(matrix, dtype=np.int64)
    v = _sign_canonical(tuple(int(x) for x in m[-1]))
    if len(m) == 2:
        return v
    return (v, _sign_canonical(tuple(int(x) for x in np.cross(m[1], m[2]))))
