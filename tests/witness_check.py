"""Independent check of a falsification witness, for the uniqueness tests.

A witness names a rational point s and a block I_j; the check evaluates the
map at s itself, in Fraction arithmetic, and compares the two multisets of
the block's values.
"""

from collections import Counter
from fractions import Fraction

from eiskit import uniqueness


def record_rejected_maps(monkeypatch) -> list:
    """The maps the falsifier's decision rejects, in order: map k is trial k's."""
    rejected = []
    decide = uniqueness.decide_affine_symmetry

    def recording(partition, blocks, mu):
        verdict = decide(partition, blocks, mu)
        if not verdict.accepted:
            rejected.append(mu)
        return verdict

    monkeypatch.setattr(uniqueness, "decide_affine_symmetry", recording)
    return rejected


def refutes(partition, blocks, mu, witness) -> bool:
    """s lies on sum n_i s_i = 0 and {s_i} != {mu_i(s)} over the block."""
    s = [Fraction(num, den) for num, den in witness["s"]]
    if len(s) != partition.r or sum(
            n * v for n, v in zip(partition.parts, s)) != 0:
        return False
    idx = blocks.index_sets()[witness["block"]]
    image = [sum(a * v for a, v in zip(mu.A[i], s)) + mu.b[i] for i in idx]
    return Counter(s[i] for i in idx) != Counter(image)
