"""The kernels read the entries of a matrix's rows as is and share their
coefficient tuples: none of them may change a stored row or entry."""

import random

from hypothesis import given, settings, strategies as st

from p1dom.complexes import ChainComplex
from p1dom.domination import _determinant, novikov_check, verify_theorem
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.laurent import BaseRing
from p1dom.scalars import GF, QQ, ZZ
from p1dom.smith import invariant_factors

from helpers import (kernel_basis, kernel_coordinates, random_matrix,
                     submatrix)


def _snapshot(objects):
    """(row, a copy of the row, a copy of each entry with c as a list) for
    every row of the given matrices and complexes."""
    out = []
    for o in objects:
        mats = o.diffs.values() if isinstance(o, ChainComplex) else [o]
        for m in mats:
            for row in m.data:
                out.append((row, dict(row), {j: (e[0], list(e[1]))
                                             for j, e in row.items()}))
    return out


def _assert_unchanged(snapshot):
    for row, entries, values in snapshot:
        assert row.keys() == entries.keys()
        for j, entry in entries.items():
            assert row[j] is entry
            assert type(entry[1]) is tuple
            assert (entry[0], list(entry[1])) == values[j]


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1),
       ring=st.sampled_from([QQ, GF(7), ZZ]))
def test_kernels_leave_every_stored_entry_unchanged(seed, ring):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    a = random_matrix(rng, ring, rows, cols, 2)
    square = random_matrix(rng, ring, rows, rows, 2)
    acyclic = random_novikov_acyclic(rng, ring)
    other = random_complex(rng, ring, max_length=3, max_rank=3)
    two_term = ChainComplex(ring, BaseRing.LAURENT, 0, 1, {0: 1, 1: 1},
                            {1: submatrix(square, [0], [0])})
    snapshot = _snapshot([a, square, acyclic, other, two_term])
    _determinant(square)
    for c in (acyclic, other, two_term):
        novikov_check(c)  # field mode, or Z mode over Z
    if ring.is_field:
        invariant_factors(a)
        k = kernel_basis(a)
        snapshot += _snapshot([k])
        kernel_coordinates(a, a)
        kernel_coordinates(k, k)
        assert verify_theorem(acyclic).passed
    _assert_unchanged(snapshot)
