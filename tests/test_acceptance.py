"""Acceptance gate: eight exact, exhaustively checked criteria.

Every criterion prints one [PASS]/[FAIL] line (through the capture, so it
shows up in terminal output) and asserts both correctness with zero
tolerance and its runtime ceiling.
"""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

from abr import (
    Color,
    ColoringTable,
    Matrix,
    PlanarSequence,
    build_cluster_parabola,
    cluster_parabola_sequence,
    color_by_crossing,
    color_by_determinant,
    color_by_heights,
    color_table,
    cupcap_extremal,
    divdiff_color_table,
    divided_difference,
    is_monotone,
    is_transitive,
    longest_monochromatic,
    moment_lift,
    one_switch_certificate,
    plucker_residual,
    random_cyclic_instance,
    signed_minor_kernel,
    vandermonde_divdiff_residual,
)

from _helpers import (
    naive_longest_monochromatic,
    rand_matrix,
    rand_planar_tuple,
    rand_table,
    seeded,
)

F = Fraction


def announce(capsys, number, ok, detail, elapsed, limit):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail} "
              f"({elapsed:.1f}s, limit {limit:.0f}s)")


def test_criterion_1_oracle_equivalence(capsys):
    limit = 30.0
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for d in (2, 3, 4):
        for i in range(1000):
            inst = random_cyclic_instance(d, d + 1, d * 1_000_000 + i, bits=10)
            pts = list(inst.points)
            _, by_heights = color_by_heights(pts)
            by_det = color_by_determinant(pts)
            if by_heights is not by_det:
                mismatches += 1
            if d == 3 and color_by_crossing(pts) is not by_det:
                mismatches += 1
            checked += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and checked == 3000 and elapsed < limit
    announce(capsys, 1, ok,
             f"heights/determinant/crossing oracles, {checked} instances, "
             f"{mismatches} mismatches", elapsed, limit)
    assert mismatches == 0
    assert checked == 3000
    assert elapsed < limit


def test_criterion_2_moment_curve_identity(capsys):
    limit = 30.0
    start = time.perf_counter()
    bad_residuals = 0
    color_mismatches = 0
    checked = 0
    for d in (2, 3, 4, 5):
        rng = seeded(55_000 + d)
        for _ in range(1000):
            pts = rand_planar_tuple(rng, d + 1, bits=8)
            if vandermonde_divdiff_residual(pts) != 0:
                bad_residuals += 1
            delta = divided_difference(pts)
            if delta != 0:
                lifted = moment_lift(PlanarSequence(tuple(pts)), d)
                want = Color.POSITIVE if delta > 0 else Color.NEGATIVE
                if color_by_determinant(list(lifted.points)) is not want:
                    color_mismatches += 1
            checked += 1
    elapsed = time.perf_counter() - start
    ok = bad_residuals == 0 and color_mismatches == 0 and checked == 4000 \
        and elapsed < limit
    announce(capsys, 2, ok,
             f"divided-difference identity on {checked} tuples, "
             f"{bad_residuals} bad residuals, {color_mismatches} color mismatches",
             elapsed, limit)
    assert bad_residuals == 0
    assert color_mismatches == 0
    assert checked == 4000
    assert elapsed < limit


def test_criterion_3_monotone_transitive_one_switch(capsys):
    limit = 300.0
    start = time.perf_counter()
    violations = 0
    instances = 0
    certificates = 0
    for d in (2, 3, 4):
        rng = seeded(77_000 + d)
        for i in range(200):
            n = rng.randrange(d + 2, 11)
            inst = random_cyclic_instance(d, n, d * 10_000_000 + i, bits=8)
            table = color_table(inst)
            ok_m, _ = is_monotone(table)
            ok_t, _ = is_transitive(table)
            if not (ok_m and ok_t):
                violations += 1
            for tup in combinations(range(n), d + 2):
                cert = one_switch_certificate([inst.points[j] for j in tup])
                dv, delta = cert.d_values, cert.minors
                identity_holds = all(
                    dv[j] * delta[(0, d + 1)]
                    == dv[0] * delta[(j, d + 1)] + dv[d + 1] * delta[(0, j)]
                    for j in range(1, d + 1)
                )
                decreasing = all(a > b for a, b in zip(cert.ratios, cert.ratios[1:]))
                if not (identity_holds and decreasing and cert.switch_count <= 1):
                    violations += 1
                certificates += 1
            instances += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and instances == 600 and elapsed < limit
    announce(capsys, 3, ok,
             f"{instances} instances monotone+transitive, {certificates} "
             f"one-switch certificates, {violations} violations", elapsed, limit)
    assert violations == 0
    assert instances == 600
    assert elapsed < limit


def test_criterion_4_kernels_and_three_term_relations(capsys):
    limit = 60.0
    start = time.perf_counter()
    failures = 0

    rng = seeded(4_001)
    for _ in range(500):
        n = rng.randrange(1, 6)
        m = rand_matrix(rng, n, n + 1, bits=8)
        if m.mul_vector(signed_minor_kernel(m)) != tuple(F(0) for _ in range(n)):
            failures += 1

    for n in (2, 3, 4, 5):
        rng = seeded(4_100 + n)
        for _ in range(500):
            m = rand_matrix(rng, n, n + 2, bits=8)
            quad = tuple(sorted(rng.sample(range(n + 2), 4)))
            if plucker_residual(m, quad) != 0:
                failures += 1

    # rational circle quadruples: the n=2 relation IS Ptolemy's theorem
    rng = seeded(4_999)
    ptolemy_checked = 0
    for _ in range(50):
        params = set()
        while len(params) < 4:
            params.add(F(rng.randrange(1, 400), rng.randrange(1, 40)) + 1)
        a = sorted(params)
        u = [(x * x - 1) / (2 * x) for x in a]           # increasing with a
        w = [(x * x + 1) / (2 * x) for x in a]           # w^2 = 1 + u^2
        if any(w[i] * w[i] != 1 + u[i] * u[i] for i in range(4)):
            failures += 1
        circle = Matrix((
            tuple((1 - v * v) / (1 + v * v) for v in u),
            tuple(2 * v / (1 + v * v) for v in u),
        ))
        if plucker_residual(circle, (0, 1, 2, 3)) != 0:
            failures += 1
        chord = {}
        for i, j in combinations(range(4), 2):
            chord[i, j] = 2 * (u[j] - u[i]) / (w[i] * w[j])
            if chord[i, j] <= 0:
                failures += 1
        if chord[0, 2] * chord[1, 3] != chord[0, 1] * chord[2, 3] \
                + chord[0, 3] * chord[1, 2]:
            failures += 1
        ptolemy_checked += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and ptolemy_checked == 50 and elapsed < limit
    announce(capsys, 4, ok,
             f"500 kernels + 2000 three-term relations + {ptolemy_checked} "
             f"Ptolemy circles, {failures} failures", elapsed, limit)
    assert failures == 0
    assert elapsed < limit


def test_criterion_5_cluster_construction(capsys):
    limit = 120.0
    start = time.perf_counter()
    sizes = {m: len(build_cluster_parabola(m, 2)[0]) for m in (1, 2, 3)}
    sizes_ok = sizes == {1: 2, 2: 4, 3: 16}
    seq, params, result = cluster_parabola_sequence(3)
    no_seven = result.exhaustive and result.size < 7
    elapsed = time.perf_counter() - start
    ok = sizes_ok and no_seven and elapsed < limit
    announce(capsys, 5, ok,
             f"sizes {sorted(sizes.values())}, m=3 exhaustive={result.exhaustive} "
             f"max_monotone={result.size} (base {params.base})",
             elapsed, limit)
    assert sizes_ok
    assert result.exhaustive
    assert result.size < 7
    assert result.size <= 2 * 3
    assert elapsed < limit


def test_criterion_6_cupcap_contrast(capsys):
    limit = 60.0
    start = time.perf_counter()
    six = cupcap_extremal(4)
    r6 = longest_monochromatic(divdiff_color_table(six, 2))
    twenty = cupcap_extremal(5)
    r20 = longest_monochromatic(divdiff_color_table(twenty, 2))
    elapsed = time.perf_counter() - start
    ok = (len(six) == 6 and r6.exhaustive and r6.size == 3
          and len(twenty) == 20 and r20.exhaustive and r20.size < 5
          and elapsed < limit)
    announce(capsys, 6, ok,
             f"6 points -> longest {r6.size}; 20 points -> longest {r20.size}, "
             f"both exhaustive", elapsed, limit)
    assert len(six) == 6 and r6.size == 3 and r6.exhaustive
    assert len(twenty) == 20 and r20.size < 5 and r20.exhaustive
    assert elapsed < limit


def test_criterion_7_search_matches_naive(capsys):
    limit = 120.0
    start = time.perf_counter()
    mismatches = 0
    rng = seeded(90_210)
    for _ in range(50):
        r = rng.choice((2, 3, 4))
        n = rng.randrange(r, 11)
        table = rand_table(rng, n, r)
        result = longest_monochromatic(table)
        naive_size, _, _ = naive_longest_monochromatic(table)
        if not result.exhaustive or result.size != naive_size:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < limit
    announce(capsys, 7, ok,
             f"50 tables vs naive enumeration, {mismatches} mismatches",
             elapsed, limit)
    assert mismatches == 0
    assert elapsed < limit


def test_criterion_8_cli_determinism(tmp_path, capsys):
    limit = 60.0
    start = time.perf_counter()
    cli = [sys.executable, "-m", "abr.cli"]

    def command_list(workdir):
        moment7 = workdir / "moment7.json"
        moment8 = workdir / "moment8.json"
        random8 = workdir / "random8.json"
        random9 = workdir / "random9.json"
        table_csv = workdir / "table.csv"
        return [
            (["generate", "moment", "--d", "3", "--n", "7", "-o", str(moment7)], moment7),
            (["generate", "moment", "--d", "4", "--n", "8", "--heights", "random",
              "--seed", "5", "-o", str(moment8)], moment8),
            (["generate", "random", "--d", "2", "--n", "8", "--seed", "42",
              "-o", str(random8)], random8),
            (["generate", "random", "--d", "3", "--n", "9", "--seed", "7",
              "--bits", "12", "-o", str(random9)], random9),
            (["generate", "em", "--m", "3", "-o", str(workdir / "em.json")],
             workdir / "em.json"),
            (["generate", "cupcap", "--k", "5", "-o", str(workdir / "cc.json")],
             workdir / "cc.json"),
            (["color", str(random8), "-o", str(table_csv)], table_csv),
            (["color", str(moment7), "--format", "json", "--cross-check",
              "-o", str(workdir / "t.json")], workdir / "t.json"),
            (["search", str(table_csv), "-o", str(workdir / "s.json")],
             workdir / "s.json"),
            (["check", "one-switch", str(random9), "--format", "json"], None),
        ]

    def run_all(workdir):
        workdir.mkdir()
        digests = []
        for args, artifact in command_list(workdir):
            proc = subprocess.run(cli + args, capture_output=True)
            assert proc.returncode == 0, (args, proc.stderr)
            blob = proc.stdout
            if artifact is not None:
                blob += artifact.read_bytes()
            digests.append(hashlib.sha256(blob).hexdigest())
        return digests

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    elapsed = time.perf_counter() - start
    agree = sum(1 for a, b in zip(first, second) if a == b)
    ok = agree == 10 and elapsed < limit
    announce(capsys, 8, ok,
             f"{agree}/10 commands byte-identical across reruns", elapsed, limit)
    assert first == second
    assert len(first) == 10
    assert elapsed < limit
