"""Output bytes that must not change from one version to the next.

Each digest was recorded once.  A mismatch means that a file `hrlq gen`
writes, or a gadget matching, has changed; update a digest only when that
change of output is intended.
"""

import hashlib

import pytest

import hrlq
from hrlq.cli import main


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("kind, graph, argv, digests", [
    ("vc2ep", "p 3 3\ne 1 2\ne 1 3\ne 2 3\n",
     ["--k", "2", "--gadget-l", "3", "--cert", "cover:v1,v2"],
     ("9bcaa5777c73d7b7c6c7f752d6964c6cd96a7b63174de04008da763fc3c44a98",
      "864fb3b40ed517e13651426a8cec3f894b72d4915cf5674357416b16273b85d1")),
    # Two filler residents, and gadgets of both orientations.
    ("vc2ep", "p 4 4\ne 1 2\ne 1 4\ne 2 3\ne 3 4\n",
     ["--k", "2", "--gadget-l", "2", "--cert", "cover:v2,v4"],
     ("4f69dba9a4178826e0d1a189b25fd4114e7a8d0030c5d80b63d175e104531a67",
      "5dffad7365f7b6b689768fd4d33b2390c98ab38ad9fc82083b677dcd7de7b9a7")),
    ("clique2er", "p 4 4\ne 1 2\ne 1 3\ne 2 3\ne 3 4\n",
     ["--k", "3", "--copies", "2", "--cert", "clique:v1,v2,v3"],
     ("c0327167dbe86d88868886638661104ea01c71280fc8f3e55785511f02e2e42a",
      "3e98fe39cc6f3da7b64e647fcc143a7f42aa67094fcb7c82180bc81f5fb74dd6")),
])
def test_gen_writes_the_recorded_bytes(capsys, tmp_path, kind, graph, argv, digests):
    graph_path = tmp_path / "source.g"
    graph_path.write_text(graph)
    out_path = tmp_path / "out.hrlq"
    assert main(["gen", kind, "--graph", str(graph_path), "--out", str(out_path), *argv]) == 0
    capsys.readouterr()
    got = (sha256(out_path.read_bytes()), sha256(out_path.with_suffix(".match").read_bytes()))
    assert got == digests


def test_gadget_matchings_repr():
    got = sha256(repr(hrlq.gadget_matchings((2, 5), 3)).encode())
    assert got == "a8f530a471cd73de1cc1bd844a178fad301aa408cac13fe05b8590405b049d63"
