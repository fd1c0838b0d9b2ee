"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS/FAIL scoreboard line even under pytest's
output capture, then asserts.  All randomness is seeded, so every run
exercises the same instances.
"""
from __future__ import annotations

import contextlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from ffc import (
    RatPoly,
    RandomSwap,
    SplitMix64,
    SwapProgram,
    asym_convolve,
    cauchy_root_bound,
    certify,
    check_asym_bound,
    check_sym_bound,
    compare_max_roots,
    count_roots_in_mult,
    expected_charpoly_swaps,
    fourier_degree_test,
    interlacing_descent,
    is_real_rooted,
    leaf_distribution,
    mfold_root_bound_table,
    random_doubly_regular,
    random_regular_symmetric,
    rejection_search,
    sym_convolve,
    uniform_program,
    verify_bip_quadrature,
    verify_sym_quadrature,
)
from ffc.serial import (
    certificate_to_obj,
    graph_to_obj,
    parse_certificate,
    parse_graph,
)
from support import criterion_09_pairs, random_symmetric_grid


@contextlib.contextmanager
def scoreboard(capsys, number, slug):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"criterion {number:2d} {slug}: {'PASS' if ok else 'FAIL'}")


def random_real_rooted(rng: SplitMix64, degree: int, nonneg: bool = False) -> RatPoly:
    roots = []
    for _ in range(degree):
        r = Fraction(int(rng.below(13)) - 6, 1 + int(rng.below(3)))
        roots.append(abs(r) if nonneg else r)
    return RatPoly.from_roots(roots)


def test_criterion_01_symmetric_quadrature(capsys):
    with scoreboard(capsys, 1, "symmetric quadrature, 50 exact matches"):
        start = time.perf_counter()
        rng = SplitMix64(101)
        for i in range(50):
            d = 2 + i % 4
            a = random_regular_symmetric(d, rng)
            b = random_regular_symmetric(d, rng)
            report = verify_sym_quadrature(a, b)
            assert report.passed, (a.rows, b.rows)
            assert report.lhs == report.rhs
            assert report.terms == math.factorial(d)
        assert time.perf_counter() - start < 60


def test_criterion_02_bipartite_quadrature(capsys):
    with scoreboard(capsys, 2, "bipartite quadrature, 20 exact matches"):
        start = time.perf_counter()
        rng = SplitMix64(202)
        for i in range(20):
            d = 2 + i % 3
            a = random_doubly_regular(d, rng)
            b = random_doubly_regular(d, rng)
            report = verify_bip_quadrature(a, b)
            assert report.passed, (a.rows, b.rows)
            assert report.terms == math.factorial(d) ** 2
        assert time.perf_counter() - start < 120


def test_criterion_03_convolution_identities(capsys):
    with scoreboard(capsys, 3, "derivative identity and algebra laws"):
        start = time.perf_counter()
        rng = SplitMix64(303)
        for i in range(100):
            d = 1 + i % 10
            p = random_real_rooted(rng, d)
            q = RatPoly.x_power(d) - RatPoly.x_power(d - 1).scale(d)
            assert sym_convolve(p, q, d) == p - p.derivative()
        for i in range(100):
            d = 2 + i % 3
            p = random_real_rooted(rng, d)
            q = random_real_rooted(rng, d)
            r = random_real_rooted(rng, d)
            c = Fraction(int(rng.below(9)) - 4, 1 + int(rng.below(3)))
            assert sym_convolve(p, q, d) == sym_convolve(q, p, d)
            assert sym_convolve(sym_convolve(p, q, d), r, d) == sym_convolve(
                p, sym_convolve(q, r, d), d
            )
            lhs = sym_convolve(p.scale(c) + q, r, d)
            assert lhs == sym_convolve(p, r, d).scale(c) + sym_convolve(q, r, d)
            pn, qn, rn = (random_real_rooted(rng, d, nonneg=True) for _ in range(3))
            assert asym_convolve(pn, qn, d) == asym_convolve(qn, pn, d)
            assert asym_convolve(asym_convolve(pn, qn, d), rn, d) == asym_convolve(
                pn, asym_convolve(qn, rn, d), d
            )
        assert time.perf_counter() - start < 60


def test_criterion_04_real_rootedness_closure(capsys):
    with scoreboard(capsys, 4, "real-rooted closure of both convolutions"):
        start = time.perf_counter()
        rng = SplitMix64(404)
        for i in range(200):
            d = 2 + i % 5
            out = sym_convolve(
                random_real_rooted(rng, d), random_real_rooted(rng, d), d
            )
            assert is_real_rooted(out)
        for i in range(200):
            d = 2 + i % 5
            out = asym_convolve(
                random_real_rooted(rng, d, nonneg=True),
                random_real_rooted(rng, d, nonneg=True),
                d,
            )
            assert is_real_rooted(out)
            hi = cauchy_root_bound(out) + 1
            assert count_roots_in_mult(out, Fraction(0), hi) == out.degree
        for i in range(50):
            d = 3 + i % 2
            mats = [random_symmetric_grid(rng, d) for _ in range(2)]
            progs = []
            for _ in range(2):
                swaps = []
                for _ in range(int(rng.below(7))):
                    s = int(rng.below(d - 1))
                    t = s + 1 + int(rng.below(d - s - 1))
                    prob = Fraction(int(rng.below(5)), 4)
                    swaps.append(RandomSwap(s, t, prob))
                progs.append(SwapProgram(d, tuple(swaps)))
            out = expected_charpoly_swaps(mats, progs)
            assert is_real_rooted(out.poly)
        assert time.perf_counter() - start < 120


def test_criterion_05_transform_inequalities(capsys):
    with scoreboard(capsys, 5, "inverse transform subadditivity margins"):
        start = time.perf_counter()
        rng = SplitMix64(505)
        weights = (Fraction(1, 4), Fraction(1), Fraction(4))
        degrees = (3, 6, 10)
        for i in range(100):
            d = degrees[i % 3]
            w = weights[(i // 3) % 3]
            p = random_real_rooted(rng, d)
            q = random_real_rooted(rng, d)
            report = check_sym_bound(p, q, d, w)
            assert report.margin >= -1e-9, (p.coeffs, q.coeffs, w, report.margin)
        for i in range(100):
            d = degrees[i % 3]
            w = weights[(i // 3) % 3]
            p = random_real_rooted(rng, d, nonneg=True)
            q = random_real_rooted(rng, d, nonneg=True)
            report = check_asym_bound(p, q, d, w)
            assert report.margin >= -1e-9, (p.coeffs, q.coeffs, w, report.margin)
        assert time.perf_counter() - start < 60


def test_criterion_06_root_bound_table(capsys):
    with scoreboard(capsys, 6, "fold roots stay below 2*sqrt(m-1)"):
        start = time.perf_counter()
        ms = list(range(3, 9))
        ds = list(range(4, 25, 2))
        for mode in ("sym", "asym"):
            rows = mfold_root_bound_table(ms, ds, mode)
            assert len(rows) == len(ms) * len(ds)
            for row in rows:
                assert row.below_bound, (row.m, row.d, row.mode)
        assert time.perf_counter() - start < 300


def test_criterion_07_end_to_end_search(capsys):
    with scoreboard(capsys, 7, "seeded searches certify at three sizes"):
        start = time.perf_counter()
        for two_d, m in ((10, 3), (16, 3), (12, 4)):
            report = rejection_search("bipartite", two_d // 2, m, 10_000, seed=2026)
            cert = report.certificate
            assert cert is not None and cert.verdict == "strictly-ramanujan"
            # round-trip through documents, then re-verify from scratch
            revived = parse_graph(graph_to_obj(report.graph))
            fresh = certify(revived)
            assert fresh.verdict == "strictly-ramanujan"
            assert parse_certificate(certificate_to_obj(cert)) == fresh
        assert time.perf_counter() - start < 300


def test_criterion_08_swap_program_uniformity(capsys):
    with scoreboard(capsys, 8, "uniform leaves exactly and statistically"):
        start = time.perf_counter()
        for d in (1, 2, 3, 4, 5):
            dist = leaf_distribution(uniform_program(d))
            assert len(dist) == math.factorial(d)
            assert set(dist.values()) == {Fraction(1, math.factorial(d))}
        d, n = 8, 1_000_000
        prog = uniform_program(d)
        gen = np.random.default_rng(20260817)
        perms = np.tile(np.arange(d, dtype=np.uint8), (n, 1))
        for swap in prog.swaps:
            fire = gen.random(n) < float(swap.prob)
            rows = perms[fire]
            s_mask = rows == swap.s
            t_mask = rows == swap.t
            rows[s_mask] = swap.t
            rows[t_mask] = swap.s
            perms[fire] = rows
        codes = np.zeros(n, dtype=np.int64)
        work = perms.astype(np.int8)
        for i in range(d):
            codes = codes * (d - i) + work[:, i]
            work[:, i + 1 :] -= work[:, i + 1 :] > work[:, i : i + 1]
        counts = np.bincount(codes, minlength=math.factorial(d))
        expected = n / math.factorial(d)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        pval = float(stats.chi2.sf(chi2, math.factorial(d) - 1))
        assert pval > 0.001, pval
        assert time.perf_counter() - start < 60


def test_criterion_09_fourier_degree(capsys):
    with scoreboard(capsys, 9, "conjugation averages have degree two"):
        start = time.perf_counter()
        for a, b in criterion_09_pairs():
            report = fourier_degree_test(a, b)
            assert report.passed
            assert len(report.samples) == 9
        assert time.perf_counter() - start < 60


def test_criterion_10_interlacing_descent(capsys):
    with scoreboard(capsys, 10, "descent beats the expected polynomial"):
        start = time.perf_counter()
        report = interlacing_descent("bipartite", 2, 3)
        cert = report.certificate
        assert cert is not None and cert.is_ramanujan
        assert compare_max_roots(cert.deflated, report.initial_deflated) <= 0
        seq = [report.initial_deflated] + [s.deflated for s in report.steps]
        for prev, cur in zip(seq, seq[1:]):
            assert compare_max_roots(cur, prev) <= 0
        assert cert.deflated == report.steps[-1].deflated
        assert time.perf_counter() - start < 60
