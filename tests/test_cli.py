"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hrlq
from hrlq import cli
from hrlq.cli import main
from helpers import chain_instance, instance_a, instance_b, random_feasible_instances

IA_TEXT = hrlq.serialize_instance(instance_a())
IB_TEXT = hrlq.serialize_instance(instance_b())
TRIANGLE_G = "p 3 3\ne 1 2\ne 1 3\ne 2 3\n"


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

    def test_bad_matching_is_input_error(self, capsys, ia_file, tmp_path):
        match_path = tmp_path / "bad.match"
        match_path.write_text("match r2 h2\n")
        code, _, err = run(capsys, "verify", "--in", ia_file, match_path)
        assert code == 2
        assert "unacceptable pair" in err


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
        code, _, err = run(capsys, "gen", "vc2ep", "--graph", graph_path,
                           "--k", "2", "--cert", "cover:v1,v2")
        assert code == 2
        assert "--cert requires --out" in err

    @pytest.mark.parametrize("kind, cert", [("vc2ep", "cover:v1,v2"), ("clique2er", "clique:v1,v2")])
    def test_cert_would_overwrite_out(self, capsys, tmp_path, kind, cert):
        graph_path = tmp_path / "triangle.g"
        graph_path.write_text(TRIANGLE_G)
        code, out, err = run(capsys, "gen", kind, "--graph", graph_path, "--k", "2",
                             "--out", tmp_path / "t.match", "--cert", cert)
        assert (code, out) == (2, "")
        assert "--out may not end in .match" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["triangle.g"]

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

    def test_graph_without_vertices_is_input_error(self, capsys, tmp_path):
        graph_path = tmp_path / "empty.g"
        graph_path.write_text("p 0 0\n")
        code, out, err = run(capsys, "gen", "vc2ep", "--graph", graph_path, "--k", "0")
        assert (code, out) == (2, "")
        assert err == "error: line 1: graph needs at least one vertex, got n=0\n"

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
        env = {**os.environ, "PYTHONPATH": str(Path(hrlq.__file__).resolve().parent.parent)}
        return subprocess.run([sys.executable, "-m", "hrlq", *argv, "--in", str(path)],
                              env=env, capture_output=True, text=True, timeout=120)

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
