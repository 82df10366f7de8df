"""Z-mode Novikov verdicts pinned on a generated corpus.

Over Z, ``novikov_check`` decides each side of a square two-term complex
by the end coefficient of its determinant, and of a longer one by the
unit-pivot contraction on the chart kernel (``_contraction_side``).
This test pins both sides (acyclic, method, certificate) of 300 generated
Z complexes, 100 for each span 1 to 3, alternately from
``random_novikov_acyclic`` and ``random_complex`` with 2 to 9 pieces at
most, so that a change to the Z kernel that moves any verdict or any
certificate byte fails here.  For each span the sha256 of the canonical
dumps of both sides is compared with a stored digest.  The digests were
last regenerated when the contraction moved from windows of 16 terms to
the exact chart kernel: no side changed its answer, and the
``unit-contraction`` certificates, which cite no truncation order,
replaced the ``truncated-contraction`` ones.

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
PER_SPAN = 100

DIGESTS = {
    1:
        "ff79430c0356b6daf78d13584c1d831b1db75cd7d4d1bf95402d9be066f182c1",
    2:
        "0dad35adf5f1cc015ed8394455c54230242d993f694728dcd7c0c99dfda6254a",
    3:
        "d1df529e14b72df64cdd6bfbbae626c25f5f1abd1fe1631133a15a83b48b3a97",
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


@pytest.mark.parametrize("span", SPANS)
def test_z_verdict_digests_are_pinned(span):
    assert digest(span) == DIGESTS[span]


if __name__ == "__main__":
    for span in SPANS:
        print(f'    {span}:\n        "{digest(span)}",')
