"""Command line behavior: output, files, manifests, and exit codes."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ffc
import ffc.serial as serial
from ffc.cli import main

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# Resolves a console-script target the way pip's generated wrapper does:
# load the entry point, name the program in argv[0], exit with main()'s code.
# Invoked as ``python -c RUN_ENTRY_POINT TARGET ARG...``.
RUN_ENTRY_POINT = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name="ffc", value=sys.argv[1], group="console_scripts").load()
sys.argv = ["ffc"] + sys.argv[2:]
sys.exit(main())
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def subprocess_env():
    """The environment with the imported ``ffc`` first on ``PYTHONPATH``, so a
    child interpreter runs the code under test, not another installed copy."""
    env = dict(os.environ)
    package_root = str(Path(ffc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def declared_console_script():
    """The ``ffc`` target in ``[project.scripts]`` of ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "ffc" in scripts, "pyproject.toml declares no ffc console script"
    return scripts["ffc"]


class TestBound:
    def test_prints_exact_then_decimal(self, capsys):
        code, out, _ = run(capsys, "bound", "--m", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "2*sqrt(2)"
        assert lines[1].startswith("2.8284271")

    def test_rational_collapse(self, capsys):
        code, out, _ = run(capsys, "bound", "--m", "5")
        assert code == 0
        assert out.strip().split("\n")[0] == "4"

    def test_too_small_multiplicity_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "--m", "1")
        assert code == 2
        assert err.strip()


class TestConvolve:
    def test_identity_convolution(self, capsys):
        code, out, _ = run(capsys, "convolve", "--p", "1,-2,1", "--q", "1,0,0")
        assert code == 0
        assert out.strip() == "x^2 - 2*x + 1"

    def test_asym_kind(self, capsys):
        code, out, _ = run(
            capsys, "convolve", "--kind", "asym", "--p", "1,-2,1", "--q", "1,-2,1"
        )
        assert code == 0

    def test_malformed_coefficients_are_usage_errors(self, capsys):
        code, _, err = run(capsys, "convolve", "--p", "1,,2", "--q", "1")
        assert code == 2


class TestTable:
    def test_small_grid_tsv(self, capsys):
        code, out, _ = run(capsys, "table", "--m", "3..4", "--d", "4..6:2", "--mode", "both")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == serial.TABLE_TSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 2
        assert all(line.split("\t")[3] == "true" for line in lines[1:])

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "table", "--m", "3", "--d", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "bound-table"

    def test_bad_range_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "table", "--m", "3..x", "--d", "4")
        assert code == 2


class TestVerify:
    def test_quadrature_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "quadrature", "--d", "3", "--trials", "3", "--seed", "2")
        assert code == 0
        assert "PASS" in out

    def test_bipartite_quadrature_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "quadrature", "--bipartite", "--d", "3", "--trials", "2", "--seed", "2"
        )
        assert code == 0

    def test_fourier_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "fourier", "--d", "4", "--trials", "3", "--seed", "5")
        assert code == 0

    def test_swap_real_rootedness_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "swapreal", "--d", "3", "--trials", "3", "--seed", "7")
        assert code == 0


class TestSampleAndCertify:
    def test_round_trip_through_files(self, tmp_path, capsys):
        graph_file = tmp_path / "g.json"
        code, _, _ = run(
            capsys, "sample", "--mode", "bipartite", "--d", "3", "--m", "3",
            "--seed", "6", "--out", str(graph_file),
        )
        assert code == 0
        assert graph_file.exists()
        manifest = serial.read_json(serial.manifest_path(graph_file))
        assert manifest["kind"] == "run-manifest"
        assert manifest["seed"] == 6

        code2, out, _ = run(capsys, "certify", str(graph_file))
        obj = serial.read_json(graph_file)
        assert obj["kind"] == "matching-union"
        assert code2 in (0, 1)
        assert "verdict" in out or "ramanujan" in out

    def test_certifying_an_aligned_union_exits_one(self, tmp_path, capsys):
        from ffc import MatchingUnion, Permutation

        g = MatchingUnion("bipartite", 2, 3, (Permutation((0, 1)),) * 3)
        path = tmp_path / "aligned.json"
        serial.write_text(path, serial.dumps(serial.graph_to_obj(g)))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 1
        assert "not-ramanujan" in out

    def test_certifying_a_good_union_exits_zero(self, tmp_path, capsys):
        from ffc import MatchingUnion, Permutation

        g = MatchingUnion(
            "bipartite", 2, 3,
            (Permutation((0, 1)), Permutation((0, 1)), Permutation((1, 0))),
        )
        path = tmp_path / "good.json"
        serial.write_text(path, serial.dumps(serial.graph_to_obj(g)))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 0
        assert "strictly-ramanujan" in out

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "certify", "/nonexistent/g.json")
        assert code == 2

    def test_version_mismatch_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "future.json"
        path.write_text('{"kind": "matching-union", "version": 99}\n')
        code, _, err = run(capsys, "certify", str(path))
        assert code == 2
        assert "version" in err


class TestSearch:
    def test_report_file_recertifies(self, tmp_path, capsys):
        report_file = tmp_path / "s.json"
        code, _, _ = run(
            capsys, "search", "--mode", "bipartite", "--d", "3", "--m", "3",
            "--max-trials", "200", "--seed", "3", "--out", str(report_file),
        )
        assert code == 0
        code2, out, _ = run(capsys, "certify", str(report_file))
        assert code2 == 0
        assert "strictly-ramanujan" in out

    def test_output_is_byte_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys, "search", "--mode", "bipartite", "--d", "3", "--m", "3",
                "--max-trials", "200", "--seed", "3", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hopeless_search_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "search", "--mode", "plain", "--d", "2", "--m", "3",
            "--max-trials", "4", "--seed", "1",
        )
        assert code == 1


class TestDescend:
    def test_smallest_case(self, capsys):
        code, out, _ = run(
            capsys, "descend", "--mode", "bipartite", "--d", "2", "--m", "3"
        )
        assert code == 0
        assert "strictly-ramanujan" in out


class TestExpected:
    def test_prints_a_polynomial(self, capsys):
        code, out, _ = run(capsys, "expected", "--mode", "bipartite", "--d", "2", "--m", "3")
        assert code == 0
        assert "27" in out


class TestUsage:
    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ffc.cli", "--version"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "ffc 0.1.0"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ffc", "--version"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ffc 0.1.0"

    def test_no_arguments_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ffc.cli"],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 2

    def test_odd_plain_dimension_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "sample", "--mode", "plain", "--d", "3", "--m", "2", "--seed", "1"
        )
        assert code == 2

    def test_console_script_entry_point(self):
        argv = ["bound", "--m", "10"]
        proc = subprocess.run(
            [sys.executable, "-c", RUN_ENTRY_POINT, declared_console_script(), *argv],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "6"
        # Where ffc is installed, the generated executable must agree too.
        if shutil.which("ffc") is not None:
            proc = subprocess.run(["ffc", *argv], capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[0] == "6"
