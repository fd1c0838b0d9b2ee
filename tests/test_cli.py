"""Command line behavior: output, files, manifests, and exit codes."""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ffc.cli as cli
import ffc.serial as serial
from ffc.cli import main
from support import run_cli_with_timeout, subprocess_env

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

    def test_unnormalizable_radicand_exceeds_the_budget(self):
        proc = run_cli_with_timeout("bound", "--m", "1000000000000000000000")
        assert proc.returncode == 3
        assert proc.stderr.startswith("budget exceeded: ")


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

    def test_oversized_level_is_refused_up_front(self):
        proc = run_cli_with_timeout("convolve", "--p", "1,0,-1", "--q", "1,0,-1", "--level", "100000000")
        assert proc.returncode == 3
        assert proc.stderr == "budget exceeded: convolution level 100000000 exceeds the budget of 1024\n"


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

    # building the first grid's list of m values alone exhausts memory
    @pytest.mark.parametrize(
        "m, d, cells",
        [("3..10000000000", "4", 2 * 9999999998), ("3", "2..1" + "0" * 30, 2 * 10**30 - 2)],
    )
    def test_absurd_ranges_are_refused_up_front(self, m, d, cells):
        proc = run_cli_with_timeout("table", "--m", m, "--d", d)
        assert proc.returncode == 3
        assert proc.stderr == f"budget exceeded: table has {cells} cells, budget allows 100000\n"

    def test_a_huge_fold_count_finishes(self):
        # the m-fold series no longer grows with m: both cells take milliseconds
        proc = run_cli_with_timeout("table", "--m", "1000000", "--d", "24", "--mode", "both")
        assert proc.returncode == 0
        assert [line.split("\t")[:4] for line in proc.stdout.splitlines()[1:]] == [
            ["1000000", "24", "sym", "true"],
            ["1000000", "24", "asym", "true"],
        ]

    def test_cells_are_counted_with_the_step(self, capsys, monkeypatch):
        # 3..4 x 4..8:2 x both kinds is 2 * 3 * 2 = 12 cells
        monkeypatch.setattr(cli, "MAX_TABLE_CELLS", 11)
        code, out, err = run(capsys, "table", "--m", "3..4", "--d", "4..8:2")
        assert (code, out) == (3, "")
        assert "table has 12 cells" in err
        monkeypatch.setattr(cli, "MAX_TABLE_CELLS", 12)
        code, out, _ = run(capsys, "table", "--m", "3..4", "--d", "4..8:2")
        assert code == 0 and len(out.strip().split("\n")) == 1 + 12


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

    @pytest.mark.parametrize("d", ["1", "0", "-1"])
    def test_quadrature_below_side_two_is_a_usage_error(self, capsys, d):
        code, out, err = run(capsys, "verify", "quadrature", "--d", d)
        assert (code, out, err) == (2, "", "error: need dimension at least 2\n")

    @pytest.mark.parametrize("mode", [[], ["--bipartite"]])
    def test_oversized_quadrature_is_refused_up_front(self, mode):
        # two 2000 x 2000 Fraction matrices would be drawn and checked first
        proc = run_cli_with_timeout("verify", "quadrature", *mode, "--d", "2000", "--trials", "1")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            f"budget exceeded: enumeration needs more than {sys.maxsize} "
            "determinant evaluations, budget allows 10000000\n"
        )

    @pytest.mark.parametrize("what", ["fourier", "swapreal"])
    def test_oversized_probe_is_refused_up_front(self, what):
        # the rotation check would run for hours, and drawing two 2000 x 2000
        # matrices alone takes seconds
        proc = run_cli_with_timeout("verify", what, "--d", "2000", "--trials", "1")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == "budget exceeded: side 2000 exceeds the budget of 64\n"

    @pytest.mark.parametrize("what", ["fourier", "swapreal"])
    def test_a_probe_past_the_side_limit_draws_no_matrix(self, capsys, monkeypatch, what):
        def no_draw(*args):
            raise AssertionError("a matrix was drawn past the side limit")

        for name in ("_random_int_matrix", "random_regular_symmetric", "_random_program"):
            monkeypatch.setattr(cli, name, no_draw)
        code, out, err = run(capsys, "verify", what, "--d", "65", "--trials", "1")
        assert (code, out, err) == (3, "", "budget exceeded: side 65 exceeds the budget of 64\n")

    def test_swap_real_rootedness_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "swapreal", "--d", "3", "--trials", "3", "--seed", "7")
        assert code == 0

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_nonpositive_trial_count_is_a_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "verify", "quadrature", "--trials", trials)
        assert code == 2
        assert "passed" not in out
        assert "trial" in err

    @pytest.mark.parametrize(
        "args, reason", [(("--d", "1"), "dimension"), (("--swaps", "-1"), "swap count")]
    )
    def test_impossible_swap_programs_are_usage_errors(self, capsys, args, reason):
        code, _, err = run(capsys, "verify", "swapreal", *args)
        assert code == 2
        assert reason in err


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

    @pytest.mark.parametrize(
        "field, value",
        [("d", 1.0), ("d", True), ("m", 1.0), ("m", True), ("perm", 0.0), ("perm", False)],
    )
    def test_non_integer_fields_are_usage_errors(self, tmp_path, capsys, field, value):
        from ffc import MatchingUnion, Permutation

        obj = serial.graph_to_obj(MatchingUnion("bipartite", 1, 1, (Permutation((0,)),)))
        if field == "perm":
            obj["perms"][0][0] = value
        else:
            obj[field] = value
        path = tmp_path / "g.json"
        serial.write_text(path, serial.dumps(obj))
        code, _, err = run(capsys, "certify", str(path))
        assert code == 2
        assert "integers" in err

    def test_version_mismatch_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "future.json"
        path.write_text('{"kind": "matching-union", "version": 99}\n')
        code, _, err = run(capsys, "certify", str(path))
        assert code == 2
        assert "version" in err

    def test_oversized_sample_is_refused_up_front(self):
        # the permutation lists alone would exhaust memory
        proc = run_cli_with_timeout("sample", "--mode", "plain", "--d", "100000000", "--m", "3")
        assert proc.returncode == 3
        assert proc.stderr == (
            "budget exceeded: a union of 3 permutations of 100000000 points has "
            "300000000 entries, budget allows 1048576\n"
        )

    def test_certifying_an_oversized_sample_is_refused_up_front(self, tmp_path):
        # admitted by the sample budget, but past the certificate's side limit
        path = tmp_path / "big.json"
        proc = run_cli_with_timeout(
            "sample", "--mode", "plain", "--d", "3000", "--m", "3", "--out", str(path)
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli_with_timeout("certify", str(path))
        assert proc.returncode == 3
        assert proc.stderr == "budget exceeded: side 3000 exceeds the budget of 256\n"

    def test_certifying_a_sample_past_the_degree_limit_is_refused_up_front(self, tmp_path):
        # admitted by the sample budget, but past the certificate's degree limit
        path = tmp_path / "deep.json"
        proc = run_cli_with_timeout(
            "sample", "--mode", "bipartite", "--d", "4", "--m", "33", "--out", str(path)
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli_with_timeout("certify", str(path))
        assert proc.returncode == 3
        assert proc.stderr == "budget exceeded: degree 33 exceeds the budget of 32\n"


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

    @pytest.mark.parametrize(
        "mode, d, m", [("plain", "3000", "3"), ("bipartite", "257", "3"), ("plain", "24", "33")]
    )
    def test_oversized_search_is_refused_up_front(self, mode, d, m):
        # one exact trial at plain d = 3000 would run for hours
        proc = run_cli_with_timeout(
            "search", "--mode", mode, "--d", d, "--m", m, "--max-trials", "1"
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            f"budget exceeded: a search trial at d = {d}, m = {m} exceeds the "
            "budget of d <= 256, m <= 32\n"
        )


class TestDescend:
    def test_smallest_case(self, capsys):
        code, out, _ = run(
            capsys, "descend", "--mode", "bipartite", "--d", "2", "--m", "3"
        )
        assert code == 0
        assert "strictly-ramanujan" in out

    def test_zero_samples_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "descend", "--mode", "bipartite", "--d", "2", "--m", "3",
            "--strategy", "sampled", "--samples", "0",
        )
        assert code == 2
        assert "sample" in err

    # the plain d=40 program has 2**39 - 1 swaps: building it exhausts memory,
    # and drawing 8 suffixes of it per program and step takes forever too;
    # plain d=6 with 10**9 samples a program would draw suffixes for hours
    OVERSIZED = [
        ("plain", "exact", "program has 549755813887 swaps, budget allows 22", ("--d", "40")),
        ("plain", "sampled", "draws 39582418599888 suffixes", ("--d", "40")),
        ("bipartite", "sampled", "draws 79164837199752 suffixes", ("--d", "40")),
        ("plain", "sampled", "draws 282000000000 suffixes", ("--d", "6", "--samples", "1000000000")),
    ]

    @pytest.mark.parametrize(
        "mode, strategy, message, size",
        [pytest.param(*case, id="-".join(case[:3])) for case in OVERSIZED],
    )
    def test_oversized_programs_are_refused_up_front(self, mode, strategy, message, size):
        proc = run_cli_with_timeout(
            "descend", "--mode", mode, "--m", "3", "--strategy", strategy, *size
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("budget exceeded: ")
        assert message in proc.stderr

    def test_an_oversized_exact_descent_is_refused_before_its_first_conditional(self):
        # its conditionals have 240 609 696 terms in all, counted by keys
        proc = run_cli_with_timeout(
            "descend", "--mode", "bipartite", "--d", "4", "--m", "5", "--strategy", "exact"
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "budget exceeded: exact descent needs 240609696 determinant evaluations, "
            "budget allows 10000000; use strategy='sampled'\n"
        )

    # requests that run long when admitted: exact bipartite d=4, m=4
    # thrashed the charpoly table for 64 s, sampled d=4, m=4 with 24 samples
    # ran 30 s and sampled d=6, m=2 with 300 samples 388 s
    LONG = [
        (("--d", "4", "--m", "4", "--strategy", "exact"),
         "exact descent needs 10025376 determinant evaluations"),
        (("--d", "4", "--m", "4", "--strategy", "sampled", "--samples", "24"),
         "sampled descent needs 10025376 determinant evaluations"),
        (("--d", "6", "--m", "2", "--strategy", "sampled", "--samples", "300"),
         "sampled descent needs 11287200 determinant evaluations"),
    ]

    @pytest.mark.parametrize(
        "args, message", LONG, ids=["exact-d4-m4", "sampled-d4-m4", "sampled-d6-m2"]
    )
    def test_long_bipartite_descents_are_refused_at_once(self, args, message):
        start = time.perf_counter()
        proc = run_cli_with_timeout("descend", "--mode", "bipartite", *args)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"budget exceeded: {message}, budget allows 10000000; ")

    def test_too_many_samples_are_named_in_the_refusal(self):
        # 100 samples of the 120 placed permutations: 61 606 000 terms in all,
        # which used to be refused only after 205 s of conditionals
        start = time.perf_counter()
        proc = run_cli_with_timeout(
            "descend", "--mode", "bipartite", "--d", "5", "--m", "3",
            "--strategy", "sampled", "--samples", "100",
        )
        assert time.perf_counter() - start < 1
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "budget exceeded: sampled descent needs 61606000 determinant evaluations, "
            "budget allows 10000000; use fewer than 100 samples per program\n"
        )

    def test_one_sample_past_the_budget_asks_for_a_smaller_request(self):
        # d = 24 has 2**23 - 1 swaps, so even one sample per program is too
        # many; the hint never asks for fewer than one
        proc = run_cli_with_timeout(
            "descend", "--mode", "plain", "--d", "24", "--m", "1",
            "--strategy", "sampled", "--samples", "1",
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "budget exceeded: sampled descent needs 16777215 determinant evaluations, "
            "budget allows 10000000; one sample per program is past it too; "
            "use a smaller d or m\n"
        )


class TestExpected:
    def test_prints_a_polynomial(self, capsys):
        code, out, _ = run(capsys, "expected", "--mode", "bipartite", "--d", "2", "--m", "3")
        assert code == 0
        assert "27" in out

    def test_bipartite_single_pair(self, capsys):
        code, out, _ = run(capsys, "expected", "--mode", "bipartite", "--d", "1", "--m", "3")
        assert (code, out) == (0, "x^2 - 9\n")

    def test_a_huge_fold_count_finishes(self):
        proc = run_cli_with_timeout("expected", "--mode", "plain", "--d", "24", "--m", "1000000")
        assert proc.returncode == 0
        assert proc.stdout.startswith("x^24 - 12000264000000/23*x^22 ")

    @pytest.mark.parametrize("mode", ["plain", "bipartite"])
    def test_oversized_size_is_refused_up_front(self, mode):
        proc = run_cli_with_timeout("expected", "--mode", mode, "--d", "2000000", "--m", "3")
        assert proc.returncode == 3
        assert proc.stderr == "budget exceeded: convolution level 1999999 exceeds the budget of 1024\n"


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
