"""Z-mode Novikov verdicts pinned on a generated corpus.

Over Z, ``novikov_check`` decides each side by unit-determinant inversion
or by the greedy unit-pivot contraction on windows of ``order`` terms.
This test pins both sides (acyclic, method, certificate) of 300 generated
Z complexes, 100 for each span 1 to 3, alternately from
``random_novikov_acyclic`` and ``random_complex`` with 2 to 9 pieces at
most, at the orders 1, 2, 3 and 16, so that a change to the Z kernel
that moves any verdict or any certificate byte fails here.  For each span
and order the sha256 of the canonical dumps of both sides is compared
with a stored digest.  The
stored digests were computed while Z mode still ran on truncated series
objects, before it moved to coefficient-list windows.

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
        "8872a65dc92577eed26d05da0b83cbde9d6216a8159b6956b39f4c168f56c287",
    "1/2":
        "5a98e2b189feedcdec068d041b00ceab61301fc034ffb656751fbf9721d22b58",
    "1/3":
        "c9d68608f3a3725b26a78dd4a87b9f38efb9f47bbdfcbe19e32cfb84159d122d",
    "1/16":
        "e102625441e6891be7c376be3169faebebe392cfef94169e797fa4266f3eaf49",
    "2/1":
        "7bbdb1317d3a36a5e0cabdf3164e55dde3d6b0dbcfedc385f4b5b2cde20b8129",
    "2/2":
        "5ba0f33f23ec0fbb04be38980e4913102d5a52814e3e8f5f7deef2420d22e959",
    "2/3":
        "a6a6d94e79aa2293d2647d35afe0faf7f2bc24e7132db6a60a206ebd9741d156",
    "2/16":
        "c7f821a4b91bd5ca8ea320cdf56c81a6ab8d34477790080d749a3f095da4bace",
    "3/1":
        "305eca9ab4b15955e3be4aa67c9214aafa2c5c595a8e36c31308ed13ae05318c",
    "3/2":
        "7744e9cad50fb58f62a28f83d78983148a25b8e95e003e5b848378a787342d3b",
    "3/3":
        "5affddd08e3d5e83aa3bd3e8e47e96dca921501b58cc03ffeb95312a5d96d6fd",
    "3/16":
        "a27d98be924202e5fc0e55222fe9f1426fc79abbd4aedbe49958c9946e84dc04",
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
