"""Z-mode Novikov verdicts pinned on a generated corpus.

Over Z, ``novikov_check`` decides each side of a square two-term complex
by the end coefficient of its determinant, and of a longer one by the
greedy unit-pivot contraction on windows of ``WINDOW_ORDER`` terms.
This test pins both sides (acyclic, method, certificate) of 300 generated
Z complexes, 100 for each span 1 to 3, alternately from
``random_novikov_acyclic`` and ``random_complex`` with 2 to 9 pieces at
most, at the orders 1, 2, 3 and 16 (``domination.WINDOW_ORDER`` set for
each), so that a change to the Z kernel that moves any verdict or any
certificate byte fails here.  For each span
and order the sha256 of the canonical dumps of both sides is compared
with a stored digest.  The digests at orders 1 to 3 were last
regenerated when the unit-pivot search began to pivot on windows of
width 1: 43 sides moved from ``unknown`` to ``yes`` (all but two at
order 1), 191 other ``unknown`` certificates changed, and no ``yes`` or
``no`` side changed a byte.

After a declared change to the Z verdicts, print the new digests with

    PYTHONPATH=src python tests/test_z_verdict_digests.py
"""

import hashlib
import random

import pytest

from p1dom import domination
from p1dom import fileformat as ff
from p1dom.domination import novikov_check
from p1dom.generators import random_complex, random_novikov_acyclic
from p1dom.scalars import ZZ

SPANS = (1, 2, 3)
ORDERS = (1, 2, 3, 16)
PER_SPAN = 100

DIGESTS = {
    "1/1":
        "5685e976caaeeabdb0325ad068062551f48e7288488cfea9a91a8718ef990c58",
    "1/2":
        "8b645fc0cb365a7b601cc5b8b634ea7b4138619fc09d2649079cd660568fd972",
    "1/3":
        "901b2aa32db6194c18ca25497c5733aa081d71a996e43d75bf116f47859d855f",
    "1/16":
        "d765304d741ea4f687c7faf223603cfee3a61cb547488c5fae592ef5fe8377ff",
    "2/1":
        "69bdee6794d385c06fa4b37583617adb5e8fa9b93b27a3cf67ea3ffd72dcd7e3",
    "2/2":
        "4a55a75d6ea6ff5177b220186049288adc2dbc1e3da707fc23d8da856df021dc",
    "2/3":
        "bf6be3db4b5898d995682ecd2671b73ea4615ec781d46917e0cf9466d097f38e",
    "2/16":
        "af8e82c7b8d7eb9cb70562d7e79eaeab62ec41876bfffb7a13bdfa42c4a9ed52",
    "3/1":
        "52db1b5210db08f144224ef176993962d4ec96069ca75b6a052d214cdae88f94",
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


def digest(span):
    h = hashlib.sha256()
    for c in corpus(span):
        verdict = novikov_check(c)
        h.update(ff.dumps_canonical(
            [side(verdict.x_side), side(verdict.x_inv_side)])
            .encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("span", SPANS)
def test_z_verdict_digests_are_pinned(span, order, monkeypatch):
    monkeypatch.setattr(domination, "WINDOW_ORDER", order)
    assert digest(span) == DIGESTS[f"{span}/{order}"]


if __name__ == "__main__":
    for span in SPANS:
        for order in ORDERS:
            domination.WINDOW_ORDER = order
            print(f'    "{span}/{order}":\n'
                  f'        "{digest(span)}",')
