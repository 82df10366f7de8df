"""Z-mode Novikov verdicts pinned on a generated corpus.

Over Z, ``novikov_check`` decides each side of a square two-term complex
by the end coefficient of its determinant, and of a longer one by the
greedy unit-pivot contraction on windows of ``order`` terms.
This test pins both sides (acyclic, method, certificate) of 300 generated
Z complexes, 100 for each span 1 to 3, alternately from
``random_novikov_acyclic`` and ``random_complex`` with 2 to 9 pieces at
most, at the orders 1, 2, 3 and 16, so that a change to the Z kernel
that moves any verdict or any certificate byte fails here.  For each span
and order the sha256 of the canonical dumps of both sides is compared
with a stored digest.  The digests were last regenerated when the
unit-determinant certificate traded its inverse series for the
determinant's end coefficient; every answer, method and contraction
certificate kept its bytes then.

After a declared change to the Z verdicts, print the new digests with

    PYTHONPATH=src python tests/test_z_verdict_digests.py
"""

import hashlib
import random

import pytest

from p1dom import fileformat as ff
from p1dom.domination import novikov_check
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.scalars import ZZ

SPANS = (1, 2, 3)
ORDERS = (1, 2, 3, 16)
PER_SPAN = 100

DIGESTS = {
    "1/1":
        "68ae9c4ea55a149016f7da2484a780d1104b4c614161eaaae7a4020e5a278895",
    "1/2":
        "fbe9a1a8af55344862f45c7f5529256520a6cec4fe77be2382525d0ab094ce00",
    "1/3":
        "514c0bc52a80e91378ec5e4959037e9c92feb4f8ce817ac9fdee65f33953447a",
    "1/16":
        "d765304d741ea4f687c7faf223603cfee3a61cb547488c5fae592ef5fe8377ff",
    "2/1":
        "ebaf8be5f73ecaa533e8fbf3dbc23f6d1d6620ad99cd1bb7b061fb9ffd31b8e4",
    "2/2":
        "1d5423ee79370d37637068918dc63d64a60b587ee5a5268307353e0afaed810f",
    "2/3":
        "31e5244b13c83b82d82345920c8dbd13146145fb04161f518608049ff395e462",
    "2/16":
        "af8e82c7b8d7eb9cb70562d7e79eaeab62ec41876bfffb7a13bdfa42c4a9ed52",
    "3/1":
        "5fb0595cb01121b67b646042ad6485bd09ca786700d6587adc220b3d545df5d4",
    "3/2":
        "201077b500f18b0b9e9ece600ae0363eed608290fee86f81b16bdb4b742b0b07",
    "3/3":
        "98bcc6349864a93b5c9945ebbffc25503ea877031e090ec10dc9db730f13374c",
    "3/16":
        "57a7385ae265fec020c256b629a3a48c445cf7b10796f44a2be31330cb711adf",
}


def corpus(span):
    """The 100 Z complexes of one span, of 2 to 9 pieces at most."""
    for i in range(PER_SPAN):
        rng = random.Random(f"z-verdict-digest/{span}/{i}")
        max_rank = 2 + (i // 2) % 8
        if i % 2:
            yield random_complex(rng, ZZ, max_length=4, max_rank=max_rank,
                                 span=span)
        else:
            yield random_novikov_acyclic(rng, ZZ, max_rank=max_rank,
                                         span=span)


def side(verdict):
    return {"acyclic": verdict.acyclic, "method": verdict.method,
            "certificate": verdict.certificate}


def digest(span, order):
    h = hashlib.sha256()
    for c in corpus(span):
        verdict = novikov_check(c, order)
        h.update(ff.dumps_canonical(
            [side(verdict.x_side), side(verdict.x_inv_side)])
            .encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("span", SPANS)
def test_z_verdict_digests_are_pinned(span, order):
    assert digest(span, order) == DIGESTS[f"{span}/{order}"]


if __name__ == "__main__":
    for span in SPANS:
        for order in ORDERS:
            print(f'    "{span}/{order}":\n'
                  f'        "{digest(span, order)}",')
