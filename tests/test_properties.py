"""Property tests: serialization round trips and algebraic invariances."""

import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eiskit.core import GroupElement, Partition, SpectralPoint, iwasawa
from eiskit.forms import (FormSet, FormSpec, const_form, form_from_json,
                          form_to_json, mock_maass_form)
from eiskit.hecke import eis_hecke_eigenvalue
from eiskit.uniqueness import AffineMap, affine_map_from_json, affine_map_to_json

from coset_key import canonical_coset_form

PROPERTY = settings(derandomize=True, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)


@st.composite
def form_specs(draw):
    degree = draw(st.sampled_from((2, 3)))
    head = draw(st.lists(complexes, min_size=degree - 1, max_size=degree - 1))
    assume(cmath.isfinite(sum(head)))  # a FormSpec rejects an infinite alpha
    primes = st.sampled_from((2, 3, 5, 7, 11, 13))
    return FormSpec(
        name=draw(st.text("mock:0123456789é\"\\", max_size=12)),
        degree=degree,
        parity=draw(st.sampled_from((0, 1))),
        alpha=tuple(head) + (-sum(head),),
        hecke=draw(st.dictionaries(primes, complexes, max_size=4)),
        satake=draw(st.dictionaries(
            primes, st.tuples(*[complexes] * degree), max_size=4)),
    )


@PROPERTY
@given(form_specs())
def test_form_json_round_trip(form):
    back = form_from_json(form_to_json(form))
    assert back == form
    assert back.satake == form.satake


fractions = st.builds(Fraction, st.integers(-10**12, 10**12),
                      st.integers(1, 10**6))


affine_maps = st.integers(1, 4).flatmap(lambda r: st.builds(
    AffineMap,
    st.lists(st.lists(fractions, min_size=r, max_size=r).map(tuple),
             min_size=r, max_size=r).map(tuple),
    st.lists(fractions, min_size=r, max_size=r).map(tuple)))


@PROPERTY
@given(affine_maps)
def test_affine_map_json_round_trip(mu):
    back = affine_map_from_json(affine_map_to_json(mu))
    assert back == mu
    assert all(isinstance(v, Fraction) for row in back.A for v in row)


# any JSON value; the integers reach past the float range
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**1100, 2**1100) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


@st.composite
def one_field_replaced(draw, documents):
    """A document from `documents` with the value at one path replaced: the
    path takes one step down, then each further step with odds 3 to 1."""
    doc = node = draw(documents)
    parent = key = None
    while (isinstance(node, (dict, list)) and node
           and (parent is None or draw(st.integers(0, 3)) > 0)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
    if parent is None:
        return draw(json_values)
    parent[key] = draw(json_values)
    return doc


valid_documents = st.one_of(
    form_specs().map(form_to_json),
    affine_maps.map(affine_map_to_json)).map(json.loads)


@settings(PROPERTY, max_examples=500)
@given(st.one_of(json_values, one_field_replaced(valid_documents))
       .map(json.dumps))
def test_json_readers_return_or_raise_value_error(text):
    # both readers take files from outside the program: any other exception
    # would escape the CLI as a traceback
    for reader in (form_from_json, affine_map_from_json):
        try:
            reader(text)
        except ValueError:
            pass


@PROPERTY
@given(st.integers(1, 300), st.integers(1, 300),
       st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.sampled_from((1, 2)))
def test_eis_hecke_eigenvalue_multiplicative(m, n, re, im, seed):
    assume(math.gcd(m, n) == 1)
    part = Partition((2, 1))
    forms = FormSet((mock_maass_form(2, seed), const_form()))
    s = SpectralPoint.from_leading(part, [complex(re, im)])
    whole = eis_hecke_eigenvalue(forms, s, m * n)
    split = (eis_hecke_eigenvalue(forms, s, m)
             * eis_hecke_eigenvalue(forms, s, n))
    assert whole == pytest.approx(split, rel=1e-10, abs=1e-300)


@PROPERTY
@given(st.integers(2, 4).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-3.0, 3.0), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.lists(st.floats(0.2, 5.0), min_size=n - 1, max_size=n - 1))))
def test_iwasawa_round_trip(data):
    upper, y = data
    n = len(y) + 1
    x = np.eye(n)
    x[np.triu_indices(n, 1)] = upper
    xg, yg, _, d = iwasawa(GroupElement.from_iwasawa(x, y))
    assert yg == pytest.approx(tuple(y), rel=1e-9)
    np.testing.assert_allclose(xg, x, rtol=0, atol=1e-9)
    assert d == pytest.approx(1.0, rel=1e-12)


def _elementary_product(n, ops):
    """Product of integer row operations row_i += k row_j (i != j)."""
    mat = np.eye(n, dtype=np.int64)
    for i, j, k in ops:
        if i != j:
            mat[i] += k * mat[j]
    return mat


@PROPERTY
@given(st.sampled_from((2, 3)).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.integers(-3, 3)), max_size=8),
    st.lists(st.integers(-5, 5), min_size=n * (n - 1) // 2,
             max_size=n * (n - 1) // 2),
    st.sampled_from(range(n)))))
def test_coset_key_invariant_under_borel(data):
    # gamma and b gamma lie in one coset of the integer upper-triangular
    # group, the invariance the lattice sums rely on to sum over coset keys
    n, ops, upper, flip = data
    gamma = _elementary_product(n, ops)
    b = np.eye(n, dtype=np.int64)
    b[np.triu_indices(n, 1)] = upper
    signs = np.ones(n, dtype=np.int64)
    signs[[flip, (flip + 1) % n]] = -1  # a determinant-one sign change
    b = np.diag(signs) @ b
    assert canonical_coset_form(b @ gamma) == canonical_coset_form(gamma)
