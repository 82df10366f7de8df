"""Report bytes pinned on a generated corpus.

The goldens pin the reports of the few files in samples/; this test pins
those of 240 generated Novikov-acyclic complexes, 80 over each of Q, GF(7)
and GF(10007), with 3 to 10 pieces and spans 1 to 4, so that a change to
an elimination kernel that moves any report byte fails here.  For each
ring and span the sha256 of the canonical dumps of ``verify_theorem``'s
report, and of the witness that ``dominate`` returns (W and the report
fields, as the CLI writes them), is compared with a stored digest.  The
stored digests were computed before the chart valuations moved to
coefficient lists.

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
        "6eb0e65851e1371a5db65af9a25f5f038985655b93b97e17c1d5bbe228a50d54",
        "a40fb2685506146ddf9f1f2e5ff7359fe7b9586f6523ec8cd9a6d2fabb359308"),
    "Q/2": (
        "4036f4a19ef9149d7274a7a286dae3299355c73f28fb8170f4fbb16d3ec701f5",
        "71eae759124b0c1e6f7d196babde5214b47033ab01e04a0b183b1a77d2ac7ef0"),
    "Q/3": (
        "ba553d8f38e182c2559b4e58bd58c5e38ba9f92caee38085d03f98618a82331b",
        "5e8f9aa9d3e6c5639d7a0ce81443382cf2777febc79dc60f30a31b4cab294821"),
    "Q/4": (
        "438d2aa3483bff7486bb9346c4b19b0ee2664d626e515642c96b8d803108db55",
        "9d3f3de579e6cd6aad35a84d6e52068f96f48b5895c9c8193cb785c13fa26615"),
    "GF(7)/1": (
        "80311f37d0bdb045b9d8f5d49f2a62c865b7bee160951e56dd1df29d4be2ad00",
        "88a9ba85705861876f5b388e4a819ef4482ba471b7ed29e99c90f10ebdb0f7a2"),
    "GF(7)/2": (
        "339b190dba9d843d5d7f53a4c44639770c55023399169021bc563fc46dfface2",
        "3518f8646be706889f472ef45b0d42e60b1819a8ab45cbadb880ef9c8078e5bb"),
    "GF(7)/3": (
        "36f8a214f2bfaf70e6cb025f1db211a9342b289d38b3930df01f1d4cf5b66266",
        "2cee799c010ca743764af46e2f1e44da4e1d9112af2611d30b0bbbe4c0f8c68b"),
    "GF(7)/4": (
        "08a3f6abef6a254685470e93f956e60ce29ea91f4fa969ef92a7b8fc270e3d52",
        "4790d63ed0d56e9994cb419339fc1c011e089f32a28f140bcc056ac5dd8335a0"),
    "GF(10007)/1": (
        "8aa36e3c23b82e696ad0e57d083bd306dd61cb881d77825ed1e1edb40504e826",
        "d526579967c20b9d311c1d3cf0d28f7970b2b47b97e53cdc37c5af0908610dc8"),
    "GF(10007)/2": (
        "afb6a5c327d1ff2ded41756b014b5112c02bfa46e927b8baca325f25c90a74b3",
        "f1cd45f51278712e1f04eaf6bf1dd12ed40c0048c628efe79322bcb9d6c93bbd"),
    "GF(10007)/3": (
        "36e80f328fc04aa12f6314ba205d85184a85532ab2031c7e8c5841ec52c1414f",
        "645bc319f6f2684bcb5f7fcaf06c22a9f4b5f26e3724d50225b470e51841710c"),
    "GF(10007)/4": (
        "926efd70d7bfd2fb4d4850273060fc64b6ebe8a85eea3e15b576cba1b3479e2a",
        "9f15d89bcc7cb55817311a1276cad6d7ebc7fd4c291cd016c987b9777e546926"),
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
