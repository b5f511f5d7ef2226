"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path, PurePosixPath

import pytest

import hrlq
from hrlq import cli
from hrlq.cli import main
from helpers import chain_instance, instance_a, instance_b, instance_c, random_feasible_instances

IA_TEXT = hrlq.serialize_instance(instance_a())
IB_TEXT = hrlq.serialize_instance(instance_b())
TRIANGLE_G = "p 3 3\ne 1 2\ne 1 3\ne 2 3\n"
# A fresh interpreter finds the hrlq these tests import.
FRESH_ENV = {**os.environ, "PYTHONPATH": str(Path(hrlq.__file__).resolve().parent.parent)}


@pytest.fixture
def ia_file(tmp_path):
    path = tmp_path / "ia.hrlq"
    path.write_text(IA_TEXT)
    return path


@pytest.fixture
def ib_file(tmp_path):
    path = tmp_path / "ib.hrlq"
    path.write_text(IB_TEXT)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_min_ep_on_instance_a(self, capsys, ia_file):
        code, out, _ = run(capsys, "solve", "--alg", "min-ep", "--in", ia_file)
        assert code == 0
        assert re.search(r"^objective\s+1$", out, re.M)
        assert "match r1 h2" in out
        assert "match r2 h1" in out

    def test_min_ep_json(self, capsys, ia_file):
        code, out, _ = run(capsys, "solve", "--alg", "min-ep", "--in", ia_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["objective"] == 1
        assert doc["objective_kind"] == "min-ep"
        assert doc["matching"] == [["r1", "h2"], ["r2", "h1"]]
        assert doc["stats"]["guess"] == [["r1", "h1"]]
        assert "warnings" not in doc
        assert "note" not in doc["stats"]

    def test_yokoi_no_solution(self, capsys, ia_file):
        code, out, _ = run(capsys, "solve", "--alg", "yokoi", "--in", ia_file)
        assert code == 1
        assert "no envy-free matching" in out

    def test_yokoi_success(self, capsys, ib_file):
        code, out, _ = run(capsys, "solve", "--alg", "yokoi", "--in", ib_file)
        assert code == 0
        assert "match r1 h2" in out

    def test_yokoi_empty_matching_is_a_solution(self, capsys, tmp_path):
        path = tmp_path / "c.hrlq"
        path.write_text(hrlq.serialize_instance(instance_c()))
        code, out, _ = run(capsys, "solve", "--alg", "yokoi", "--in", path)
        assert code == 0
        assert re.search(r"^objective\s+0$", out, re.M)
        assert not re.search(r"^match ", out, re.M)

    def test_da(self, capsys, ia_file):
        code, out, _ = run(capsys, "solve", "--alg", "da", "--in", ia_file)
        assert code == 0
        assert "match r1 h1" in out  # DA ignores lower quotas

    def test_brute_algorithms(self, capsys, ia_file):
        for alg in ["brute-ep", "brute-er"]:
            code, out, _ = run(capsys, "solve", "--alg", alg, "--in", ia_file)
            assert code == 0
            assert re.search(r"^objective\s+1$", out, re.M)

    def test_infeasible_instance(self, capsys, tmp_path):
        path = tmp_path / "bad.hrlq"
        path.write_text("resident r: h\nhospital h [2,2]: r\n")
        code, out, _ = run(capsys, "solve", "--alg", "min-ep", "--in", path)
        assert code == 1
        assert "infeasible" in out
        # Under --json the outcome is one document too, and stderr stays empty.
        for alg in ("min-ep", "brute-ep", "brute-er"):
            code, out, err = run(capsys, "solve", "--alg", alg, "--json", "--in", path)
            assert (code, err) == (1, "")
            assert json.loads(out) == {"command": "solve", "algorithm": alg, "outcome": "infeasible"}
        code, out, err = run(capsys, "oracle", "--json", "--in", path)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"command": "oracle", "outcome": "infeasible"}

    def test_level_cap_exceeded(self, capsys, ia_file):
        code, _, err = run(capsys, "solve", "--alg", "min-ep", "--in", ia_file,
                           "--level-cap", "0")
        assert code == 3
        assert "guess level" in err

    @pytest.mark.parametrize("command", [
        ["solve", "--alg", "min-ep", "--level-cap", "-3"],
        ["solve", "--alg", "brute-ep", "--budget", "-1"],
        ["oracle", "--budget", "-1"],
        ["solve", "--alg", "brute-ep", "--budget", "x"],
        # Counts are ASCII digits only: no other script, no '_', no sign, no space.
        ["solve", "--alg", "brute-ep", "--budget", "\u0665"],
        ["solve", "--alg", "min-ep", "--level-cap", "1_0"],
        ["oracle", "--budget", "+5"],
        ["oracle", "--budget", " 7"],
        # argparse rejects --k as it reads it, before it could object to --in.
        ["gen", "vc2ep", "--graph", "triangle.g", "--k", "\u0662"],
    ])
    def test_negative_cap_is_input_error(self, capsys, ia_file, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--in", str(ia_file)])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    def test_zero_caps_are_accepted(self, capsys, ia_file):
        code, _, err = run(capsys, "solve", "--alg", "min-ep", "--in", ia_file,
                           "--level-cap", "0")
        assert code == 3 and "guess level 0" in err
        code, _, err = run(capsys, "oracle", "--in", ia_file, "--budget", "0")
        assert code == 3 and "node budget of 0" in err

    def test_budget_exceeded(self, capsys, tmp_path):
        path = tmp_path / "wide.hrlq"
        residents = [f"r{i}" for i in range(1, 4)]
        lines = [f"resident {r}: h1 h2 h3" for r in residents]
        lines += [f"hospital h{j} [0,1]: r1 r2 r3" for j in range(1, 4)]
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "solve", "--alg", "brute-ep", "--in", path,
                           "--budget", "5")
        assert code == 3
        assert "node budget" in err

    def test_malformed_instance(self, capsys, tmp_path):
        path = tmp_path / "bad.hrlq"
        path.write_text("hospital h [2,1]: r\n")
        code, _, err = run(capsys, "solve", "--alg", "da", "--in", path)
        assert code == 2
        assert "quota inversion" in err

    def test_out_into_missing_directory_prints_nothing(self, capsys, tmp_path, ia_file):
        code, out, err = run(capsys, "solve", "--alg", "da", "--in", ia_file,
                             "--out", tmp_path / "nodir" / "a.match")
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2]")

    def test_declaration_without_head_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.hrlq"
        path.write_text(": r1\n")
        code, out, err = run(capsys, "solve", "--alg", "da", "--in", path)
        assert (code, out) == (2, "")
        assert err == "error: line 1: unrecognized declaration: ': r1'\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--alg", "da", "--in", "nope.hrlq")
        assert code == 2

    @pytest.mark.parametrize("command", [["solve", "--alg", "da"], ["oracle"]])
    def test_non_utf8_file_is_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "bad.hrlq"
        path.write_bytes(b"\xff\xfe bad")
        code, _, err = run(capsys, *command, "--in", path)
        assert code == 2
        assert err == f"error: {path}: not UTF-8 text\n"

    def test_out_writes_matching_file(self, capsys, ia_file, tmp_path):
        out_path = tmp_path / "ia.match"
        code, _, _ = run(capsys, "solve", "--alg", "min-ep", "--in", ia_file,
                         "--out", out_path)
        assert code == 0
        assert out_path.read_text() == "match r1 h2\nmatch r2 h1\n"


class TestVerify:
    def test_verify_reproduces_solve_objective(self, capsys, ia_file, tmp_path):
        match_path = tmp_path / "ia.match"
        run(capsys, "solve", "--alg", "min-ep", "--in", ia_file, "--out", match_path)
        code, out, _ = run(capsys, "verify", "--in", ia_file, match_path, "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["envy_pairs"]) == 1
        assert doc["envy_pairs"] == [["r1", "h1"]]
        assert doc["feasible"] is True

    def test_verify_text(self, capsys, ia_file, tmp_path):
        match_path = tmp_path / "ia.match"
        match_path.write_text("match r2 h1\nmatch r1 h2\n")
        code, out, _ = run(capsys, "verify", "--in", ia_file, match_path)
        assert code == 0
        assert "envy-pair r1 h1" in out
        assert "blocking-pair r1 h1" in out

    # verify's text rows against its --json lists: a count row is the length
    # of its list, a hospital row the list joined by spaces (- when empty),
    # and each item of a list has one line of its own.
    COUNTS = {"envy pairs": "envy_pairs", "envy residents": "envy_residents",
              "blocking pairs": "blocking_pairs"}
    HOSPITALS = {"deficient": "deficient_hospitals",
                 "over subscribed": "over_subscribed_hospitals"}
    ITEMS = {"envy-pair": "envy_pairs", "envy-resident": "envy_residents",
             "blocking-pair": "blocking_pairs"}

    def _check_rows_against_json(self, capsys, tmp_path, inst, matching):
        inst_path, match_path = tmp_path / "v.hrlq", tmp_path / "v.match"
        inst_path.write_text(hrlq.serialize_instance(inst))
        match_path.write_text(hrlq.serialize_matching(inst, matching))
        code, out, _ = run(capsys, "verify", "--in", inst_path, match_path)
        json_code, json_out, _ = run(capsys, "verify", "--in", inst_path, match_path, "--json")
        assert code == json_code == 0
        doc = json.loads(json_out)
        lines = out.splitlines()
        rows = dict(re.fullmatch(r"(\S+(?: \S+)*)  +(\S.*)", line).groups() for line in lines[:7])
        assert list(rows) == ["feasible", "envy free", *self.COUNTS, *self.HOSPITALS]
        assert rows["feasible"] == ("yes" if doc["feasible"] else "no")
        assert rows["envy free"] == ("yes" if doc["envy_free"] else "no")
        for row, key in self.COUNTS.items():
            assert rows[row] == str(len(doc[key]))
        for row, key in self.HOSPITALS.items():
            assert rows[row] == (" ".join(doc[key]) or "-")
        items = [[kind, *(item if isinstance(item, list) else [item])]
                 for kind, key in self.ITEMS.items() for item in doc[key]]
        assert [line.split() for line in lines[7:]] == items
        return doc

    def test_rows_match_json_on_instance_a(self, capsys, tmp_path):
        inst = instance_a()
        doc = self._check_rows_against_json(
            capsys, tmp_path, inst, hrlq.make_matching(inst, [("r1", "h2"), ("r2", "h1")]))
        assert doc["envy_pairs"] == [["r1", "h1"]]

    def test_rows_match_json_on_deficient_and_over_subscribed_hospitals(self, capsys, tmp_path):
        inst = instance_a()
        doc = self._check_rows_against_json(
            capsys, tmp_path, inst, hrlq.make_matching(inst, [("r1", "h1"), ("r2", "h1")]))
        assert doc["deficient_hospitals"] == ["h2"]
        assert doc["over_subscribed_hospitals"] == ["h1"]

    def test_rows_match_json_on_deferred_acceptance(self, capsys, tmp_path):
        for inst in random_feasible_instances(1, 30):
            self._check_rows_against_json(capsys, tmp_path, inst, hrlq.deferred_acceptance(inst))

    def test_bad_matching_is_input_error(self, capsys, ia_file, tmp_path):
        match_path = tmp_path / "bad.match"
        match_path.write_text("match r2 h2\n")
        code, _, err = run(capsys, "verify", "--in", ia_file, match_path)
        assert code == 2
        assert "unacceptable pair" in err


class TestByteOrderMark:
    """A leading U+FEFF, which some editors write, is no part of a file's text."""

    @pytest.mark.parametrize("text, command", [
        (IA_TEXT, ["solve", "--alg", "da", "--in"]),
        (TRIANGLE_G, ["gen", "vc2ep", "--k", "2", "--graph"]),
        ("match r1 h2\nmatch r2 h1\n", ["verify", "--in", "ia.hrlq"]),
    ], ids=["hrlq", "g", "match"])
    def test_file_that_starts_with_the_mark_reads_as_without(self, capsys, tmp_path,
                                                             monkeypatch, text, command):
        monkeypatch.chdir(tmp_path)
        Path("ia.hrlq").write_text(IA_TEXT)
        Path("plain").write_text(text, encoding="utf-8")
        Path("marked").write_text("\ufeff" + text, encoding="utf-8")
        plain = run(capsys, *command, "plain")
        assert plain[0] == 0
        assert run(capsys, *command, "marked") == plain

    def test_names_holding_the_mark_are_kept(self, capsys, tmp_path):
        residents, hospitals = ["r\u200b", "\ufeffr", "r\u00e9"], ["h\u200b", "h\ufeff", "\u00e9"]
        inst = hrlq.validate_instance(
            residents, hospitals,
            {r: [h] for r, h in zip(residents, hospitals)},
            {h: [r] for r, h in zip(residents, hospitals)},
            dict.fromkeys(hospitals, (0, 1)),
        )
        path = tmp_path / "names.hrlq"
        path.write_text(hrlq.serialize_instance(inst), encoding="utf-8")
        code, out, _ = run(capsys, "solve", "--alg", "da", "--in", path)
        assert code == 0
        assert out.splitlines()[-3:] == [f"match {r} {h}" for r, h in zip(residents, hospitals)]


class TestGen:
    def test_vc2ep_with_certificate(self, capsys, tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        out_path = tmp_path / "triangle.hrlq"
        code, _, err = run(capsys, "gen", "vc2ep", "--graph", graph_path,
                           "--k", "2", "--gadget-l", "10",
                           "--out", out_path, "--cert", "cover:v1,v2")
        assert code == 0
        assert err == ""
        inst = hrlq.parse_instance(out_path.read_text())
        assert len(inst.residents) + len(inst.hospitals) == 126
        cert = hrlq.parse_matching((tmp_path / "triangle.match").read_text(), inst)
        assert hrlq.is_feasible(inst, cert)
        assert len(hrlq.envy_pairs(inst, cert)) <= 12

    def test_vc2ep_stdout_and_separation_warning(self, capsys, tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path,
                             "--k", "2", "--gadget-l", "2")
        assert code == 0
        assert "warning" in err and "separation" in err
        inst = hrlq.parse_instance(out)
        assert len(inst.residents) == 3 + 4 * 3  # n + 2*m*l

    def test_gen_solved_equals_in_memory_solve(self, capsys, tmp_path):
        graph_path = tmp_path / "edge.g"
        graph_path.write_text("p 2 1\ne 1 2\n")
        out_path = tmp_path / "edge.hrlq"
        run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", "1",
            "--gadget-l", "2", "--out", out_path)
        parsed = hrlq.parse_instance(out_path.read_text())
        graph = hrlq.SourceGraph(2, [(1, 2)], k=1)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", hrlq.SeparationBoundWarning)
            direct = hrlq.vc_to_min_ep(graph, hrlq.VCReductionParams(2))
        assert parsed == direct
        assert hrlq.min_ep_exact(parsed) == hrlq.min_ep_exact(direct)
        assert hrlq.min_ep_exact(parsed).objective == 1

    def test_clique2er_with_certificate(self, capsys, tmp_path):
        graph_path = tmp_path / "pendant.g"
        graph_path.write_text("p 4 4\ne 1 2\ne 1 3\ne 2 3\ne 3 4\n")
        out_path = tmp_path / "pendant.hrlq"
        code, _, _ = run(capsys, "gen", "clique2er", "--graph", graph_path,
                         "--k", "3", "--copies", "5",
                         "--out", out_path, "--cert", "clique:v1,v2,v3")
        assert code == 0
        inst = hrlq.parse_instance(out_path.read_text())
        assert len(inst.residents) == 24
        cert = hrlq.parse_matching((tmp_path / "pendant.match").read_text(), inst)
        assert len(hrlq.envy_residents(inst, cert)) <= 9

    def test_cert_without_out_is_an_error(self, capsys, tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path,
                             "--k", "2", "--cert", "cover:v1,v2")
        assert (code, out) == (2, "")
        assert "--cert requires --out" in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("kind, cert", [("vc2ep", "cover:v1,v2"), ("clique2er", "clique:v1,v2")])
    def test_cert_would_overwrite_out(self, capsys, tmp_path, kind, cert):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        code, out, err = run(capsys, "gen", kind, "--graph", graph_path, "--k", "2",
                             "--out", tmp_path / "t.match", "--cert", cert)
        assert (code, out) == (2, "")
        assert "--out may not end in .match" in err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["triangle.g"]

    def test_cert_that_cannot_be_written_leaves_no_instance(self, capsys, tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        (tmp_path / "out.match").mkdir()
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", "2",
                             "--out", tmp_path / "out.hrlq", "--cert", "cover:v1,v2")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.match", "triangle.g"]
        assert not any((tmp_path / "out.match").iterdir())

    def test_cert_that_cannot_be_written_leaves_an_old_instance_as_it_was(self, capsys,
                                                                           tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        (tmp_path / "out.hrlq").write_text("precious\n")
        (tmp_path / "out.match").mkdir()
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", "2",
                             "--out", tmp_path / "out.hrlq", "--cert", "cover:v1,v2")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert (tmp_path / "out.hrlq").read_text() == "precious\n"
        assert not any((tmp_path / "out.match").iterdir())

    @staticmethod
    def _link(target, link):
        try:
            os.symlink(target, link)
        except (OSError, NotImplementedError):
            pytest.skip("symbolic links are refused here")

    def test_out_that_cannot_be_created_leaves_an_old_cert_as_it_was(self, capsys, tmp_path):
        # --out is a link into a missing directory: it cannot be created, which
        # must fail the run before the certificate next to it is rewritten.
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        (tmp_path / "out.match").write_text("old\n")
        self._link(tmp_path / "missing" / "x", tmp_path / "out.hrlq")
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", "2",
                             "--out", tmp_path / "out.hrlq", "--cert", "cover:v1,v2")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert (tmp_path / "out.match").read_text() == "old\n"

    def test_cert_that_cannot_be_written_removes_the_out_it_created_through_a_link(
            self, capsys, tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        (tmp_path / "out.match").mkdir()
        self._link(tmp_path / "target.hrlq", tmp_path / "out.hrlq")
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", "2",
                             "--out", tmp_path / "out.hrlq", "--cert", "cover:v1,v2")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert (tmp_path / "out.hrlq").is_symlink() and not (tmp_path / "target.hrlq").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.hrlq", "out.match", "triangle.g"]

    def test_instance_that_cannot_be_written_leaves_no_cert(self, capsys, tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        (tmp_path / "out.hrlq").mkdir()
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", "2",
                             "--out", tmp_path / "out.hrlq", "--cert", "cover:v1,v2")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.hrlq", "triangle.g"]

    @pytest.mark.parametrize("out", ["x.match", ".match", "x.tar.gz", "dir.d/x"])
    def test_cert_path_follows_pathlib(self, capsys, tmp_path, monkeypatch, out):
        # The refusal and the certificate's path follow PurePosixPath's suffix rules.
        monkeypatch.chdir(tmp_path)
        Path("triangle.g").write_text(TRIANGLE_G)
        Path("dir.d").mkdir()
        code, _, err = run(capsys, "gen", "vc2ep", "--graph", "triangle.g", "--k", "2",
                           "--out", out, "--cert", "cover:v1,v2")
        written = sorted(str(p) for p in Path().rglob("*") if p.is_file())
        if PurePosixPath(out).suffix == ".match":
            assert (code, written) == (2, ["triangle.g"])
            assert "--out may not end in .match" in err
        else:
            cert = str(PurePosixPath(out).with_suffix(".match"))
            assert (code, err) == (0, "")
            assert written == sorted(["triangle.g", out, cert])
            hrlq.parse_matching(Path(cert).read_text(), hrlq.parse_instance(Path(out).read_text()))

    def test_clique2er_to_stdout(self, capsys, tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        code, out, err = run(capsys, "gen", "clique2er", "--graph", graph_path, "--k", "2")
        assert (code, err) == (0, "")
        inst = hrlq.parse_instance(out)
        assert len(inst.residents) == 3 + 3 * 4  # n + m*copies, copies = n + 1

    def test_bad_certificate_is_input_error(self, capsys, tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        out_path = tmp_path / "t.hrlq"
        code, _, err = run(capsys, "gen", "vc2ep", "--graph", graph_path,
                           "--k", "2", "--gadget-l", "10",
                           "--out", out_path, "--cert", "cover:v3")
        assert code == 2
        assert "not covered" in err

    @pytest.mark.parametrize("k, message", [
        ("9", "error: target parameter k=9 outside 1..3 (0 leaves it unset)\n"),
        ("0", "error: target parameter k must be set (1 <= k <= n)\n"),
    ], ids=["above-n", "zero"])
    def test_k_outside_the_accepted_range_names_it(self, capsys, tmp_path, k, message):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", k)
        assert (code, out, err) == (2, "", message)

    def test_graph_without_vertices_is_input_error(self, capsys, tmp_path):
        graph_path = tmp_path / "empty.g"
        graph_path.write_text("p 0 0\n")
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", "0")
        assert (code, out) == (2, "")
        assert err == "error: line 1: graph needs at least one vertex, got n=0\n"

    def test_certificate_is_read_before_the_instance_is_built(self, capsys, tmp_path,
                                                              monkeypatch):
        # A malformed certificate is refused at once, whatever the build would cost.
        def build(graph, params):
            raise AssertionError("built before the certificate was read")

        monkeypatch.setattr(cli._GENERATORS["vc2ep"], "build", build)
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", "2",
                             "--gadget-l", "100000000", "--out", tmp_path / "t.hrlq",
                             "--cert", "cover:vx")
        assert (code, out, err) == (2, "", "error: bad certificate vertex 'vx'\n")

    def test_instance_too_large_for_memory_is_input_error(self, tmp_path):
        # 4*m*L = 1.2e9 gadget vertices do not fit in 128 MB of address space.
        resource = pytest.importorskip("resource")
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        limit = 128 * 2**20

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "hrlq", "gen", "vc2ep", "--graph", str(graph_path),
             "--k", "2", "--gadget-l", "100000000"],
            env=FRESH_ENV, preexec_fn=cap_address_space, capture_output=True, text=True,
            timeout=120)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: out of memory building vc2ep for a graph of 3 vertices "
                               "and 3 edges with --gadget-l 100000000\n")

    @pytest.mark.parametrize("spec, message", [
        ("cover:v\u00b2", "bad certificate vertex"),
        ("cover:\u2462", "bad certificate vertex"),
        ("cover:v1x", "bad certificate vertex"),
        ("clique:v1,v2", "certificate must look like cover:"),
        ("v1,v2", "certificate must look like cover:"),
        ("cover:", "certificate names no vertices"),
        ("cover: , ", "certificate names no vertices"),
        pytest.param("cover:v" + "1" * 5000, "bad certificate vertex", id="vertex-of-5000-digits"),
    ])
    def test_malformed_certificate_is_parse_error(self, capsys, tmp_path, spec, message):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        code, _, err = run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", "2",
                           "--gadget-l", "2", "--out", tmp_path / "t.hrlq", "--cert", spec)
        assert code == 2
        assert err.splitlines()[-1].startswith("error: ")
        assert message in err


class TestOracle:
    def test_both_objectives(self, capsys, ia_file):
        code, out, _ = run(capsys, "oracle", "--in", ia_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["min_ep"]["objective"] == 1
        assert doc["min_er"]["objective"] == 1

    def test_json_equals_separate_oracles(self, capsys, tmp_path):
        # One enumeration scores both objectives; each must match its own oracle.
        for n, inst in enumerate([instance_a(), *random_feasible_instances(23, 25)]):
            path = tmp_path / f"i{n}.hrlq"
            path.write_text(hrlq.serialize_instance(inst))
            code, out, _ = run(capsys, "oracle", "--in", path, "--json")
            assert code == 0
            doc = json.loads(out)
            for key, solve in (("min_ep", hrlq.brute_min_ep), ("min_er", hrlq.brute_min_er)):
                want = solve(inst)
                assert doc[key]["objective"] == want.objective
                assert doc[key]["matching"] == [list(p) for p in want.matching.pairs()]
                assert doc[key]["stats"]["guesses_examined"] == 0

    def test_text_mode(self, capsys, ia_file):
        code, out, _ = run(capsys, "oracle", "--in", ia_file)
        assert code == 0
        assert "min-ep objective  1" in out
        assert "min-er objective  1" in out


def test_entrypoint_exits_with_the_code_of_main(capsys, monkeypatch, ia_file):
    monkeypatch.setattr(sys, "argv", ["hrlq", "solve", "--alg", "yokoi", "--in", str(ia_file)])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == 1
    assert capsys.readouterr().out == "no envy-free matching\n"


class TestLongChains:
    """A 2,000-link chain through a fresh interpreter: no depth limit, no traceback."""

    @staticmethod
    def _hrlq(tmp_path, inst, *argv):
        path = tmp_path / "chain.hrlq"
        path.write_text(hrlq.serialize_instance(inst))
        return subprocess.run([sys.executable, "-m", "hrlq", *argv, "--in", str(path)],
                              env=FRESH_ENV, capture_output=True, text=True, timeout=120)

    def test_oracle(self, tmp_path):
        proc = self._hrlq(tmp_path, chain_instance(2000), "oracle")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "min-ep objective  1999" in proc.stdout
        assert "min-er objective  1999" in proc.stdout

    def test_solve_min_ep(self, tmp_path):
        proc = self._hrlq(tmp_path, chain_instance(2000, open_end=0), "solve", "--alg", "min-ep")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert re.search(r"^objective\s+0$", proc.stdout, re.M)

    def test_solve_min_ep_capped(self, tmp_path):
        proc = self._hrlq(tmp_path, chain_instance(2000), "solve", "--alg", "min-ep",
                          "--level-cap", "0")
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: no solution within guess level 0")


class TestClosedPipe:
    def test_reader_closing_early_is_not_an_input_error(self, tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        # Unbuffered, each print is written at once and the parent may exit 0
        # with its output cut; buffered, the write after the close fails.
        env = {k: v for k, v in FRESH_ENV.items() if k != "PYTHONUNBUFFERED"}
        argv = [sys.executable, "-m", "hrlq", "gen", "vc2ep", "--graph", str(graph_path),
                "--k", "2", "--gadget-l", "300"]  # about 185 KB, more than a pipe holds
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.readline().startswith("resident ")
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert stderr == ""
        assert code != cli.EXIT_INPUT_ERROR


# Imports one module and prints two lines: the modules the import added, and
# each module whose top-level code ran exec or eval on a string as it loaded.
IMPORT_PROBE = """
import sys
execs = set()

def hook(event, args):
    if event == "exec" and args[0].co_filename == "<string>":
        frame = sys._getframe(1)
        while frame.f_code.co_name != "<module>":
            frame = frame.f_back
        execs.add(frame.f_globals["__name__"])

before = set(sys.modules)
sys.addaudithook(hook)
import {module}
print(" ".join(sorted(set(sys.modules) - before)))
print(" ".join(sorted(execs)))
"""


class TestStartup:
    """Every CLI run imports hrlq first: dataclasses would pull in inspect, ast and dis,
    and exec each record's generated methods, before any work is done."""

    @pytest.mark.parametrize("module", ["hrlq", "hrlq.cli"])
    def test_imports_neither_dataclasses_nor_inspect_and_runs_no_exec(self, module):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE.format(module=module)],
                              env=FRESH_ENV, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        added, execs = (line.split() for line in proc.stdout.split("\n")[:2])
        assert module in added
        assert {"dataclasses", "inspect"}.isdisjoint(added)
        assert [name for name in execs if name.partition(".")[0] == "hrlq"] == []

    def test_cli_imports_no_pathlib_without_site(self):
        # Under -S the interpreter imports nothing for site, so every module
        # pathlib would pull in shows up as the CLI's own.
        proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE.format(module="hrlq.cli")],
                              env=FRESH_ENV, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        added = proc.stdout.split("\n")[0].split()
        assert "hrlq.cli" in added
        assert {"pathlib", "urllib", "ipaddress"}.isdisjoint(added)


class TestDeterminism:
    def test_solve_output_is_byte_identical(self, capsys, ia_file):
        _, first, _ = run(capsys, "solve", "--alg", "min-ep", "--in", ia_file, "--json")
        _, second, _ = run(capsys, "solve", "--alg", "min-ep", "--in", ia_file, "--json")
        assert first == second

    def test_gen_output_is_byte_identical(self, capsys, tmp_path):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        _, first, _ = run(capsys, "gen", "vc2ep", "--graph", graph_path,
                          "--k", "2", "--gadget-l", "10")
        _, second, _ = run(capsys, "gen", "vc2ep", "--graph", graph_path,
                           "--k", "2", "--gadget-l", "10")
        assert first == second
