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
valuation on each side.  The verify digests were rewritten once more
when a PASS dropped its two checks that cannot fail
(``witness-strict-perfect`` and ``finite-total-homology``); every new
verify report was checked to equal the old one without them, and the
dominate digests did not move.

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
        "9640a05712f5362e8fb69f82e16f20822061c4d631911f5ac7f64fc904b56036",
        "a5af9dc10ffc8a7f21aa703f13ba70af656806ccd76fd9e17e6c8587c434b73a"),
    "Q/2": (
        "8ed778c332a67af38670726cb160fc208e5b94a44ffaf6f4c0fcfb4bb1ff4bd0",
        "0fbe82592d4c3dad2d682f6548952d2534dc963b3b7eee71f586fb100cecd239"),
    "Q/3": (
        "050238144adbf46db0f71d2bdf06262690807c1e0b9a45b46d4d435d9e50ff2a",
        "9412207957d6f2ea9347cc1403611688487e51e99acd8cb82226462da5a211d1"),
    "Q/4": (
        "79c25aed17c2aadf1a14281387160bbe984f3bfb356e07c091e155ae180d924c",
        "de229bc6d587ff4001467d12772c1d95c6026db8c1049908c7ac5824374abf39"),
    "GF(7)/1": (
        "303bc053a0b047ae9082d4e5dc1bf076f1701b139f171e09b43a94581ac582be",
        "04976ab75c8f60b283b88e829558e5c28d37fc478cadad7e44f30ee03b53dacb"),
    "GF(7)/2": (
        "a1317ad4539536cb86c3ea3fcf77f0aed2cbf37d14c16b9a145d17cf868acca4",
        "e8714221e98d7f7c3ac92677e44d69f9a3f91e55818803e87a31a3506c0b6399"),
    "GF(7)/3": (
        "7e41fcd33020ea953972e41edc0a695a30d4755f19655e7a71bab318b4c06078",
        "6dde8d5f08a64eff73933f82aa34d3d33fdea5c8a0d362f53cee674e41ae69f5"),
    "GF(7)/4": (
        "60c316174960bfff626f0efe4f0e1200869ecb4e3e37657bbd3aaa26c67f33d3",
        "eb82b401c888128b56934de0217acfda552018cac917f1cd7be74acecde73140"),
    "GF(10007)/1": (
        "a599c8a13e0e9122eda658e0c459faf829b5d4990ce8de1ee053b58ff7b5e835",
        "7873efa86cbd57a8d019c58577359386b71800a1758992cc20637e8fde7a4902"),
    "GF(10007)/2": (
        "d7ecf437ff2672bd4442a2ccd44eede75272d856592463586d617c1bcc11ff5a",
        "18d136ae9887bc05989b903715fbc349e0811504e4dcbb96c0446c4725e72310"),
    "GF(10007)/3": (
        "38aebe6d0494372df006d36bb633e10df8dac0860ff22203c089e93f254f16d5",
        "ea0f2ea4ac17242133f3e21cedd496e737ece9d3348fb029989b689daae7d579"),
    "GF(10007)/4": (
        "91b046f48a47251704a0853f7fae9454b9da3b358f07693c5b9a38784abcfee7",
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
