"""Report bytes pinned on a generated corpus.

The goldens pin the reports of the few files in samples/; this test pins
those of 240 generated Novikov-acyclic complexes, 80 over each of Q, GF(7)
and GF(10007), with 3 to 10 pieces and spans 1 to 4, so that a change to
an elimination kernel that moves any report byte fails here.  For each
ring and span the sha256 of the canonical dumps of ``verify_theorem``'s
report, and of the witness that ``dominate`` returns (W and the report
fields, as the CLI writes them), is compared with a stored digest.  The
stored digests were last rewritten when the chart valuations replaced
the truncation orders in the witness keys; before that rewrite every new
report was checked to equal the old one with ``plus_order``,
``minus_order`` and ``stabilisation_heuristic`` replaced by
``chart_valuations`` and the ``ledger-equation`` detail by the largest
valuation on each side.

After a declared change to the reports, print the new digests with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import random

import pytest

from p1dom import fileformat as ff
from p1dom.domination import dominate, verify_theorem
from p1dom.generators import random_novikov_acyclic
from p1dom.scalars import GF, QQ

RINGS = {"Q": QQ, "GF(7)": GF(7), "GF(10007)": GF(10007)}
SPANS = (1, 2, 3, 4)
PER_RING = 80

DIGESTS = {
    "Q/1": (
        "ae2c5f84152b6c72cf617603820adc6ce8c56e490b814f37d7c73c54df49bf8a",
        "a5af9dc10ffc8a7f21aa703f13ba70af656806ccd76fd9e17e6c8587c434b73a"),
    "Q/2": (
        "7bc2561e1b04b8aedb230baf5c05fba45c42ee0f56f0db8c8dda4b697ac25922",
        "0fbe82592d4c3dad2d682f6548952d2534dc963b3b7eee71f586fb100cecd239"),
    "Q/3": (
        "002f05ac36c1f26af8730d65078227de793bd6d0b51068f86a9576418fc3bc94",
        "9412207957d6f2ea9347cc1403611688487e51e99acd8cb82226462da5a211d1"),
    "Q/4": (
        "a92e7c2d9fdafc609427451e8f076770849e98b5bae4eb0bf5a79b727b1c770d",
        "de229bc6d587ff4001467d12772c1d95c6026db8c1049908c7ac5824374abf39"),
    "GF(7)/1": (
        "1134ec55124edf865dcfce652a4b199393d8ec40a79b87e9f4efef992cb80c5b",
        "04976ab75c8f60b283b88e829558e5c28d37fc478cadad7e44f30ee03b53dacb"),
    "GF(7)/2": (
        "0959be8b3f723ed187b2cf861f5502880c54b5ca05a222ee1f380667b581f60c",
        "e8714221e98d7f7c3ac92677e44d69f9a3f91e55818803e87a31a3506c0b6399"),
    "GF(7)/3": (
        "a2102919e7562298c32d816586fa7c4cde2028907c88bd4e9b9f864f60216e68",
        "6dde8d5f08a64eff73933f82aa34d3d33fdea5c8a0d362f53cee674e41ae69f5"),
    "GF(7)/4": (
        "306b1890e3f8b25496452c8587bdbfe79262eb6ebcf92d94f1e104af28495d90",
        "eb82b401c888128b56934de0217acfda552018cac917f1cd7be74acecde73140"),
    "GF(10007)/1": (
        "0e028de0523c5e95a48a6ef1ab62545e42fb638aef9ceb837a07f86a7a8293d8",
        "7873efa86cbd57a8d019c58577359386b71800a1758992cc20637e8fde7a4902"),
    "GF(10007)/2": (
        "70470d41ddf8c04cdafbcc1ac93c16c2c16e7d06a43681df5edf98e1ea57c655",
        "18d136ae9887bc05989b903715fbc349e0811504e4dcbb96c0446c4725e72310"),
    "GF(10007)/3": (
        "53c4a9ff77501121e97f0d4c9bd90a0c1fa37513f2c6093f95e6bc7a79104e52",
        "ea0f2ea4ac17242133f3e21cedd496e737ece9d3348fb029989b689daae7d579"),
    "GF(10007)/4": (
        "a8e0d7270af3cb516d3bb2df95fd724c143489a3ebebdbfa595f811576faa081",
        "aa7f84d221357e3e996870c1bae09b9209fd2445a9f3ce828e3defcf4bca84cf"),
}


def corpus(ring, span):
    """The instances of one ring and span: 20 of the ring's 80."""
    for i in range(span - 1, PER_RING, len(SPANS)):
        rng = random.Random(f"report-digest/{ring.tag}/{i}")
        yield random_novikov_acyclic(rng, ring, max_rank=3 + (i // 4) % 8,
                                     span=span)


def digests(ring, span):
    """(verify digest, dominate digest) of one ring and span."""
    verify, dom = hashlib.sha256(), hashlib.sha256()
    for c in corpus(ring, span):
        verify.update(ff.dumps_canonical(verify_theorem(c).to_dict())
                      .encode("utf-8"))
        witness = dominate(c)
        dom.update(ff.dumps_canonical(
            {"w": ff.complex_to_dict(witness.w), **witness.report_fields()})
            .encode("utf-8"))
    return verify.hexdigest(), dom.hexdigest()


@pytest.mark.parametrize("tag", RINGS)
@pytest.mark.parametrize("span", SPANS)
def test_report_digests_are_pinned(tag, span):
    assert digests(RINGS[tag], span) == DIGESTS[f"{tag}/{span}"]


if __name__ == "__main__":
    for tag, ring in RINGS.items():
        for span in SPANS:
            verify, dom = digests(ring, span)
            print(f'    "{tag}/{span}": (\n        "{verify}",\n'
                  f'        "{dom}"),')
