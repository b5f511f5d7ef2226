#!/usr/bin/env python3
"""The file formats and the command line, driven programmatically.

Writes a graph file, generates a reduction instance with its certificate
matching, solves and verifies through the CLI entry point, and shows the
exit-code conventions.

Run:  python demos/file_formats_and_cli.py
"""

import tempfile
from pathlib import Path

import hrlq
from hrlq.cli import main

scratch = tempfile.TemporaryDirectory(prefix="hrlq-demo-")
workdir = Path(scratch.name)
print("working in", workdir)

print("\n--- an instance file (.hrlq) ---")
ia = workdir / "ia.hrlq"
ia.write_text(
    "# two residents, two hospitals that both must fill exactly one seat\n"
    "resident r1: h1 h2\n"
    "resident r2: h1\n"
    "hospital h1 [1,1]: r1 r2\n"
    "hospital h2 [1,1]: r1\n"
)
print(ia.read_text())

print("--- solve --alg min-ep (exit 0, matching on stdout) ---")
code = main(["solve", "--alg", "min-ep", "--in", str(ia), "--out", str(workdir / "ia.match")])
print("exit code:", code)

print("\n--- solve --alg yokoi reports there is no envy-free matching (exit 1) ---")
code = main(["solve", "--alg", "yokoi", "--in", str(ia)])
print("exit code:", code)

print("\n--- verify re-derives every number from instance + matching ---")
code = main(["verify", "--in", str(ia), str(workdir / "ia.match")])
print("exit code:", code)

print("\n--- a graph file (.g) and the generators ---")
graph = workdir / "triangle.g"
graph.write_text("p 3 3\ne 1 2\ne 1 3\ne 2 3\n")
print(graph.read_text())

out = workdir / "triangle.hrlq"
code = main([
    "gen", "vc2ep", "--graph", str(graph), "--k", "2", "--gadget-l", "10",
    "--out", str(out), "--cert", "cover:v1,v2",
])
print("gen exit code:", code)
instance = hrlq.parse_instance(out.read_text())
certificate = hrlq.parse_matching((workdir / "triangle.match").read_text(), instance)
print("generated", len(instance.residents), "residents and",
      len(instance.hospitals), "hospitals;",
      "certificate matching has", len(hrlq.envy_pairs(instance, certificate)),
      "envy pairs (guaranteed <= n^2 + m = 12)")

print("\n--- round trips are byte-stable ---")
text = out.read_text()
assert hrlq.serialize_instance(hrlq.parse_instance(text)) == text
print("parse -> serialize reproduced the file exactly")

print("\n--- oracle runs both brute-force objectives ---")
code = main(["oracle", "--in", str(ia)])
print("exit code:", code)

print("\n--- malformed input is exit code 2 ---")
bad = workdir / "bad.hrlq"
bad.write_text("hospital h [2,1]: r\n")
code = main(["solve", "--alg", "da", "--in", str(bad)])
print("exit code:", code)

scratch.cleanup()
