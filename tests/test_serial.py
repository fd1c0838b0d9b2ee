"""Lossless text formats for polynomials, graphs, certificates, and reports."""
from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ffc.serial as serial
from ffc import (
    MatchingUnion,
    ParameterError,
    Permutation,
    QuadScalar,
    SplitMix64,
    certify,
    mfold_root_bound_table,
    rejection_search,
    sample_bipartite,
    sample_nonbipartite,
)
from ffc.cli import main
from support import fractions_st, matching_unions_st, real_rooted_st


class TestScalars:
    @given(fractions_st(max_num=1000, max_den=999))
    def test_fraction_round_trip(self, x):
        assert serial.parse_fraction(str(x)) == x

    @pytest.mark.parametrize(
        "text",
        ["0", "3/2", "-7", "2*sqrt(2)", "-sqrt(5)", "1/2+3*sqrt(2)", "-1/3-5/7*sqrt(3)", "2+sqrt(7)"],
    )
    def test_quad_round_trip(self, text):
        assert str(serial.parse_quad(text)) == text

    @given(
        st.fractions(max_denominator=40),
        st.fractions(max_denominator=40),
        st.sampled_from([0, 2, 3, 5, 7, 8]),
    )
    def test_random_quad_round_trip(self, a, b, r):
        v = QuadScalar(a, b, r)
        assert serial.parse_quad(str(v)) == v

    def test_malformed_quads_are_rejected(self):
        for bad in ("sqrt(-2)", "1+", "2**sqrt(2)", "sqrt(two)", ""):
            with pytest.raises(ParameterError):
                serial.parse_quad(bad)

    def test_decimal_rendering(self):
        assert serial.decimal_str(Fraction(1, 2)) == "0.5"
        assert serial.decimal_str(QuadScalar.sqrt_int(8)) == "2.82842712474619"


class TestPolyDocuments:
    @given(real_rooted_st())
    def test_round_trip(self, p):
        assert serial.parse_poly(serial.poly_to_obj(p)) == p

    def test_coefficients_are_exact_strings(self):
        from ffc import RatPoly

        obj = serial.poly_to_obj(RatPoly.from_roots([Fraction(1, 3)]))
        assert obj["coeffs"] == ["-1/3", "1"]


class TestGraphDocuments:
    def test_round_trip_random_samples(self):
        rng = SplitMix64(8)
        for _ in range(50):
            g = sample_bipartite(3, 2, rng)
            assert serial.parse_graph(serial.graph_to_obj(g)) == g
        for _ in range(50):
            g = sample_nonbipartite(4, 3, rng)
            assert serial.parse_graph(serial.graph_to_obj(g)) == g

    def test_version_mismatch_is_rejected(self):
        g = sample_bipartite(2, 2, SplitMix64(1))
        obj = serial.graph_to_obj(g)
        obj["version"] = 99
        with pytest.raises(ParameterError, match="version"):
            serial.parse_graph(obj)

    def test_wrong_kind_is_rejected(self):
        with pytest.raises(ParameterError, match="kind"):
            serial.parse_graph({"kind": "bound-table", "version": 1})

    def test_non_bijective_permutation_is_rejected(self):
        g = sample_bipartite(2, 2, SplitMix64(1))
        obj = serial.graph_to_obj(g)
        obj["perms"] = [[0, 0], [0, 1]]
        with pytest.raises(ParameterError):
            serial.parse_graph(obj)


class TestCertificateDocuments:
    def test_round_trip(self):
        g = MatchingUnion("bipartite", 2, 3, (Permutation((0, 1)), Permutation((0, 1)), Permutation((1, 0))))
        cert = certify(g)
        obj = serial.certificate_to_obj(cert)
        assert serial.parse_certificate(obj) == cert
        assert obj["bound"]["exact"] == "2*sqrt(2)"
        assert obj["bound"]["decimal"].startswith("2.8284271")


class TestSearchReportDocuments:
    def test_graph_can_be_extracted_from_either_document(self):
        report = rejection_search("bipartite", 2, 3, 50, seed=4)
        report_obj = serial.search_report_to_obj(report, seed=4)
        graph_obj = serial.graph_to_obj(report.graph, seed=4)
        assert serial.graph_from_document(report_obj) == report.graph
        assert serial.graph_from_document(graph_obj) == report.graph

    def test_serialization_is_byte_deterministic(self):
        a = rejection_search("bipartite", 3, 3, 50, seed=12)
        b = rejection_search("bipartite", 3, 3, 50, seed=12)
        assert serial.dumps(serial.search_report_to_obj(a, 12)) == serial.dumps(
            serial.search_report_to_obj(b, 12)
        )


    def test_fallback_count_stays_out_of_the_document(self):
        # m = 2: every trial is left to certify, and the count is not written
        a, b = (rejection_search("bipartite", 4, 2, 50, 9, allow_boundary=True) for _ in range(2))
        assert a.fallbacks == a.trials_run > 0
        text = serial.dumps(serial.search_report_to_obj(a, 9))
        assert text == serial.dumps(serial.search_report_to_obj(b, 9))
        assert "fallbacks" not in text


PARSERS = {
    "matching-union": serial.parse_graph,
    "ramanujan-certificate": serial.parse_certificate,
    "search-report": serial.parse_search_report,
}
REQUIRED = {
    "matching-union": ("version", "kind", "mode", "d", "m", "perms"),
    "ramanujan-certificate": (
        "version", "kind", "mode", "d", "m", "char_poly", "deflated", "bound",
        "interior_count", "boundary_count", "verdict",
    ),
    "search-report": (
        "version", "kind", "mode", "d", "m", "seed", "trials_run", "successes",
        "first_success_trial", "graph", "certificate",
    ),
}
SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


def through_json(obj):
    return json.loads(serial.dumps(obj))


@st.composite
def reports_st(draw):
    g = draw(matching_unions_st())
    seed = draw(SEEDS)
    report = rejection_search(
        g.mode, g.d, g.m, draw(st.integers(min_value=1, max_value=6)), seed,
        allow_boundary=draw(st.booleans()),
    )
    return report, seed


@st.composite
def documents_st(draw):
    kind = draw(st.sampled_from(sorted(PARSERS)))
    if kind == "search-report":
        report, seed = draw(reports_st())
        return serial.search_report_to_obj(report, seed)
    g = draw(matching_unions_st())
    if kind == "ramanujan-certificate":
        return serial.certificate_to_obj(certify(g))
    return serial.graph_to_obj(g, seed=draw(st.none() | SEEDS))


@st.composite
def malformed_st(draw):
    """A valid document with one field missing, mislabelled or out of range."""
    obj = through_json(draw(documents_st()))
    kind = obj["kind"]
    graph = obj if kind == "matching-union" else obj.get("graph")
    how = draw(st.sampled_from(["drop", "kind", "version", "d", "m", "perm"]))
    if how == "perm" and graph is None:
        how = "d"
    if how == "drop":
        del obj[draw(st.sampled_from(REQUIRED[kind]))]
    elif how == "kind":
        obj["kind"] = draw(st.sampled_from([k for k in PARSERS if k != kind] + [None, 1]))
    elif how == "version":
        obj["version"] = draw(st.sampled_from([0, 2, "1", 1.0, True, None]))
    elif how == "d":
        odd = [obj["d"] + 1] if obj["mode"] == "nonbipartite" else []
        obj["d"] = draw(st.sampled_from([0, -1, True, "4", 2.0, None, [2]] + odd))
    elif how == "m":
        obj["m"] = draw(st.sampled_from([0, -1, True, "3", 1.5, None]))
    else:
        image = draw(st.sampled_from(graph["perms"]))
        index = draw(st.integers(min_value=0, max_value=len(image) - 1))
        image[index] = draw(st.sampled_from([graph["d"], -1, "0", 1.0, None, True]))
    return kind, obj


class TestDocumentProperties:
    @given(matching_unions_st(), st.none() | SEEDS)
    def test_graph_round_trip(self, g, seed):
        assert serial.parse_graph(through_json(serial.graph_to_obj(g, seed))) == g

    @given(matching_unions_st())
    def test_certificate_round_trip(self, g):
        cert = certify(g)
        assert serial.parse_certificate(through_json(serial.certificate_to_obj(cert))) == cert

    @given(reports_st())
    def test_search_report_round_trip(self, case):
        report, seed = case
        obj = through_json(serial.search_report_to_obj(report, seed))
        assert set(obj) == set(REQUIRED["search-report"])
        parsed = serial.parse_search_report(obj)
        assert parsed == dataclasses.replace(report, wall_time=0.0, fallbacks=0)

    @settings(max_examples=150)
    @given(malformed_st())
    def test_malformed_documents_are_rejected(self, case):
        kind, obj = case
        with pytest.raises(ParameterError):
            PARSERS[kind](obj)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(malformed_st().filter(lambda case: case[0] == "search-report"))
    def test_certify_exits_two_on_a_malformed_search_report(self, tmp_path, capsys, case):
        path = tmp_path / "report.json"
        path.write_text(serial.dumps(case[1]))
        assert main(["certify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_inconsistent_search_reports_are_rejected(self):
        report = rejection_search("bipartite", 3, 3, 50, seed=12)
        good = through_json(serial.search_report_to_obj(report, 12))
        for field, value in [
            ("successes", 0),
            ("first_success_trial", report.trials_run),
            ("trials_run", 0),
            ("seed", 2**64),
            ("certificate", None),
            ("d", 4),
        ]:
            obj = dict(good, **{field: value})
            with pytest.raises(ParameterError):
                serial.parse_search_report(obj)

    def test_certificate_fields_must_fit_d(self):
        good = serial.certificate_to_obj(certify(sample_bipartite(3, 3, SplitMix64(1))))
        for field, value in [
            ("d", 4),
            ("interior_count", 5),
            ("boundary_count", -1),
            ("verdict", "maybe"),
            ("bound", "2*sqrt(2)"),
            ("char_poly", {"coeffs": [1, 2]}),
        ]:
            obj = dict(good, **{field: value})
            with pytest.raises(ParameterError):
                serial.parse_certificate(obj)


class TestTables:
    def test_table_round_trip_shape(self):
        rows = mfold_root_bound_table([3], [4, 6], "sym")
        obj = serial.table_to_obj(rows)
        assert obj["kind"] == "bound-table"
        assert len(obj["rows"]) == 2
        tsv = serial.table_to_tsv(rows)
        lines = tsv.strip().split("\n")
        assert lines[0] == serial.TABLE_TSV_HEADER
        assert len(lines) == 3
        assert lines[1].split("\t")[3] == "true"


class TestFiles:
    def test_dumps_is_sorted_and_newline_terminated(self):
        text = serial.dumps({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_write_then_read(self, tmp_path):
        path = tmp_path / "doc.json"
        digest = serial.write_text(path, serial.dumps({"kind": "x"}))
        assert len(digest) == 64
        assert serial.read_json(path) == {"kind": "x"}

    def test_unreadable_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope}")
        with pytest.raises(ParameterError, match="line"):
            serial.read_json(path)

    def test_manifest_sits_next_to_the_output(self, tmp_path):
        out = tmp_path / "graph.json"
        assert serial.manifest_path(out) == tmp_path / "graph.json.manifest.json"

    def test_manifest_contents(self):
        from ffc import DEFAULT_BUDGETS

        obj = serial.manifest_obj(["ffc", "bound", "--m", "3"], 7, DEFAULT_BUDGETS, {"out.json": "ab" * 32}, 0.25)
        assert obj["kind"] == "run-manifest"
        assert obj["argv"] == ["ffc", "bound", "--m", "3"]
        assert obj["seed"] == 7
        assert json.dumps(obj)  # JSON-serializable throughout
