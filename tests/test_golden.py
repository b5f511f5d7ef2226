"""Output bytes that must not change from one version to the next.

Each digest was recorded once.  A mismatch means that a file `hrlq gen`
writes, a report that `hrlq solve|verify|oracle` prints, or a gadget matching
has changed; update a digest only when that change of output is intended.
"""

import hashlib

import pytest

import hrlq
from hrlq.cli import main
from helpers import instance_a, instance_b, instance_c


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


# `verify` reads the instance's min-ep matching; "a" has no envy-free matching,
# so its yokoi rows are the no-solution report, and "c"'s envy-free matching
# is empty, which is still a solution.
@pytest.mark.parametrize("name, command, code, digest", [
    ("a", "solve --alg da", 0,
     "5e7c42d55ab0c3a2eaa0fd3824b2eae047d665aee97ca35ab306915d0800c83f"),
    ("a", "solve --alg da --json", 0,
     "cf856e0be8cc56665beb5f27bf0c19b67ef2e7b4b92281be70538db74eef3423"),
    ("a", "solve --alg yokoi", 1,
     "2d6179d5271c0a061da6aacdc9f2fb6890f9727a54e37fcb9e70ca22a1906dcf"),
    ("a", "solve --alg yokoi --json", 1,
     "c12d083e12d4c5f089cdec8682d395b3919be950e2a211328ec693d7043a5526"),
    ("a", "solve --alg min-ep", 0,
     "cd828f5bae49346391da4b055a0cdeb0e91fca74e4abb66c6a28510a0e65c7eb"),
    ("a", "solve --alg min-ep --json", 0,
     "8f57b424de2c901c7505793fdb64cb6c58de0409ef43c7e066027063b41748c9"),
    ("a", "solve --alg brute-ep", 0,
     "22155adfefca1d4f63a3ab64bac0eddc34959f3b6141147c36750213cbcc4a77"),
    ("a", "solve --alg brute-ep --json", 0,
     "218c3d59a33ef0c6e98d945a6c0b14e24e403f344f935ec1173f0f31021fefb0"),
    ("a", "solve --alg brute-er", 0,
     "789d09852e4b03b78926fc411b0a7a3bbfe6a7e610094e86fae712ba9921367a"),
    ("a", "solve --alg brute-er --json", 0,
     "0946fe75cb793e85b8bfdc58e7956fc4e9ea0add3dd3f97e1d5d1ed5f78e03ae"),
    ("a", "verify", 0,
     "a6bbeb57ec16cd4246f0e5bf4f0577cd9455380e7b0c02461d1d0691c875df7a"),
    ("a", "verify --json", 0,
     "b974a6e039c7a455c45879caf7949c417a19fcb18670cf01b6c36d4047ca7517"),
    ("a", "oracle", 0,
     "32573b4b015320cc39b16620911f853ab651276518162c3830c90b3c91fe93e8"),
    ("a", "oracle --json", 0,
     "78784e01976ce1931e1a5a07574882ccd53420855b76f39c933dec535cb553da"),
    ("b", "solve --alg da", 0,
     "876e76cd8b9ed19ae1a8e201997418fd422d168fe7350f3ffd0c464de31b24db"),
    ("b", "solve --alg da --json", 0,
     "41e62d1c5ec7e2cf39841af494bcd21df829ac1acb16288c1efd72630a15945b"),
    ("b", "solve --alg yokoi", 0,
     "0d9c7d43f66109ae357098cdd557f5677aa33f46c6b1ab95327128a47d815522"),
    ("b", "solve --alg yokoi --json", 0,
     "775a9dbf158d2cf70b9d4f7247816b28d0be5eb834920605ec5991b765709c32"),
    ("b", "solve --alg min-ep", 0,
     "8368a7dfb8fad94851a67b55560c92bae30cc8a1caef033fdb5c29fe21f7b250"),
    ("b", "solve --alg min-ep --json", 0,
     "829c6ca93561488f424180e88ca17f6e4197583f7df22b44b22790b832a1fb70"),
    ("b", "solve --alg brute-ep", 0,
     "b40ff130cd8836f6b745b8fc9ffc7fd0ad5960b9bd258bd45116deeaf17a5329"),
    ("b", "solve --alg brute-ep --json", 0,
     "20a77b3603296efa5741f06ed73e19725bdc6d38ce4b39bd8ca1ce40d3db307c"),
    ("b", "solve --alg brute-er", 0,
     "23c86d3a60081cf51012c66801c429001ed06d1ef44bd428b478f1b07c173867"),
    ("b", "solve --alg brute-er --json", 0,
     "bc76ee8e32bb71a3e53a919a0257018ea465ee3dfd2f5dc5be3b543465383ca4"),
    ("b", "verify", 0,
     "c62fedc621bf67a010e8ca8aade79df8fb67e2c25d4dff26d6ceb1282a9a96d6"),
    ("b", "verify --json", 0,
     "4f877bb33554383ace621dbc8c890c04b053e9bfd87f339aaff8d4ac7fed00cc"),
    ("b", "oracle", 0,
     "292bd793e7ca4d0ed31e5364c8d5aeb199affe78a1ff7c2a9f410cca87395ae8"),
    ("b", "oracle --json", 0,
     "1ecea2886cc425c04b61c5944ef803ae5f5585f2fb0563cb7ca85f0a62c44156"),
    ("c", "solve --alg da", 0,
     "2cbd0b3446f3a67ca5e4ece7e94e11c22eea2cff6b2d2814cfd0b5b2fe6d6637"),
    ("c", "solve --alg da --json", 0,
     "32c7705a22dcf704dfe1bab285a8734ec04fe9c2eed1f45dde0b715b63c12820"),
    ("c", "solve --alg yokoi", 0,
     "d5681d67688419870a00e47383551c44d1456f286dc0f6d51503145189033582"),
    ("c", "solve --alg yokoi --json", 0,
     "8344f342f1547e54f68ef863bd0d2bde095fc2e67fa27804d247db1496b3d4ad"),
    ("c", "solve --alg min-ep", 0,
     "63017d040686e0bcb7ea338528e05ad536f448bdf864d7e3730c0dc5bf8d9a44"),
    ("c", "solve --alg min-ep --json", 0,
     "323e299eb0d3eef5f29be10b7e8120eccca7268e7d412a61bf9419d1695424fa"),
])
def test_reports_print_the_recorded_bytes(capsys, tmp_path, name, command, code, digest):
    inst = {"a": instance_a, "b": instance_b, "c": instance_c}[name]()
    inst_path = tmp_path / "in.hrlq"
    inst_path.write_text(hrlq.serialize_instance(inst))
    argv = command.split()
    if argv[0] == "verify":
        match_path = tmp_path / "in.match"
        match_path.write_text(hrlq.serialize_matching(inst, hrlq.min_ep_exact(inst).matching))
        argv.insert(1, str(match_path))
    assert main([*argv, "--in", str(inst_path)]) == code
    assert sha256(capsys.readouterr().out.encode()) == digest
