"""Tests of the benchmark's own parts: tracing wrappers, self-time
arithmetic, the table writer and the output checks.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import abr  # noqa: E402
import abr.cli  # noqa: E402
import exact  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _abr_bindings():
    bindings = {}
    for mod in tracing._abr_modules():
        for key, value in vars(mod).items():
            bindings[(mod.__name__, key)] = value
    for cls in (abr.ColoringTable, abr.LazyDivdiffColors):
        for key, value in vars(cls).items():
            bindings[(cls.__qualname__, key)] = value
    return bindings


def test_wrappers_restore_every_original(tmp_path):
    before = _abr_bindings()
    table = tmp_path / "t.csv"
    table.write_text(exact.table_csv(6, 3, exact.cupcap_colors(6, exact.seeded_rng(1, "t"))))
    tracer = tracing.Tracer()
    original_det = abr.linalg.det
    with tracing.Installed(tracer):
        assert abr.linalg.det is not original_det
        assert abr.coloring.det is abr.linalg.det is abr.sequences.det
        assert abr.ColoringTable.color.__wrapped__ is before[("ColoringTable", "color")]
        code = run.InProcess(abr.cli)(["check", "transitive", str(table)]).exit
    assert code == 0
    assert {tracer.names[i] for i in tracer.name_id} >= {
        "cli.main", "tables.csv_read", "tables.build", "tables.check", "tables.lookup"}
    after = _abr_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrappers_restore_after_a_failed_install(monkeypatch):
    before = _abr_bindings()
    broken = tracing.TARGETS + (("x", "abr.tables", "ColoringTable.missing", None),)
    monkeypatch.setattr(tracing, "TARGETS", broken)
    with pytest.raises(KeyError):
        with tracing.Installed(tracing.Tracer()):
            pass
    after = _abr_bindings()
    assert all(after[key] is before[key] for key in before)


def test_self_times_on_a_synthetic_tree():
    #   0 [0, 10]
    #   +-- 1 [1, 4]
    #   |   +-- 2 [1.5, 2]
    #   +-- 3 [5, 6]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 1.5, 5.0]
    end = [10.0, 4.0, 2.0, 6.0]
    assert tracing.self_times(parent, start, end) == [6.0, 2.5, 0.5, 1.0]


def test_tracer_records_parents_and_aggregates_by_name():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: leaf(x) + leaf(x))
    assert outer(1) == 4
    assert [tracer.names[i] for i in tracer.name_id] == ["outer", "leaf", "leaf"]
    assert list(tracer.parent) == [-1, 0, 0]
    own = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    assert sum(own) == pytest.approx(total)
    assert all(t >= 0 for t in own)


def test_layer_metrics_match_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(tracing.MOVES)
    derived = tracing.layer_metrics(tracing.Tracer(), [], 0)
    assert set(derived) | {"cli.startup_s", "trace.overhead_s"} == set(names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("name", ["table-transitive", "table-perturbed"])
def test_table_writer_is_deterministic(tmp_path, name):
    def written(seed, sub):
        work = tmp_path / sub
        work.mkdir()
        workloads.WORKLOADS[name](work, seed).setup(None)
        return {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    first, again, other = written(5, "a"), written(5, "b"), written(6, "c")
    assert first == again
    assert first != other


def test_perturbed_tables_are_not_transitive(tmp_path):
    workload = workloads.TablePerturbed(tmp_path, 3)
    workload.setup(None)
    for colors in workload.colors:
        assert exact.transitivity_violation(workload.N, 3, colors) is not None


def test_int_det_and_window_chain_against_brute_force():
    assert exact.int_det([[2, 1], [1, 3]]) == 5
    assert exact.int_det([[0, 1, 2], [1, 0, 3], [4, -3, 8]]) == -2
    assert exact.int_det([[1, 2], [2, 4]]) == 0
    colors = exact.cupcap_colors(9, exact.seeded_rng(2, "brute"))
    best = max(len(sub) for size in range(3, 10) for sub in combinations(range(9), size)
               if exact.is_monochromatic(sub, 3, colors, True)
               or exact.is_monochromatic(sub, 3, colors, False))
    assert exact.transitivity_violation(9, 3, colors) is None
    assert exact.longest_window_chain(9, 3, colors) == best


class _SmallLifted(workloads.LiftedD3):
    N, INSTANCES, PREFIX = 8, 1, 6


class _SmallEm(workloads.EmPrefix):
    WINDOW, INSTANCES = 8, 1


class _SmallTransitive(workloads.TableTransitive):
    N, INSTANCES = 8, 1


class _SmallPerturbed(workloads.TablePerturbed):
    N, INSTANCES = 9, 1


def _honest_pass(cls, tmp_path):
    workload = cls(tmp_path, 7)
    results, _, _ = run.one_pass(workload, run.InProcess(abr.cli))
    for step in workload.steps():
        assert results[step.name].exit == step.exit, step.name
    assert workload.verify(results) == []
    return workload, results


def _doctor(results, name, **fields):
    return dict(results, **{name: dataclasses.replace(results[name], **fields)})


def _rejects(workload, results, step):
    failures = workload.verify(results)
    assert failures and all(f.startswith(step) for f in failures), failures


def _edit_json(result, attr, **changes):
    obj = json.loads(getattr(result, attr))
    obj.update(changes)
    return {attr: (json.dumps(obj) + "\n").encode()}


def test_lifted_checks_reject_doctored_artifacts(tmp_path):
    workload, results = _honest_pass(_SmallLifted, tmp_path)
    lines = results["color #0"].artifact.decode().splitlines()
    lines[5] = lines[5][:-1] + ("-" if lines[5].endswith("+") else "+")
    doctored_csv = ("\n".join(lines) + "\n").encode()
    _rejects(workload, _doctor(results, "color #0", artifact=doctored_csv), "color #0")
    monotone = results["check monotone #0"]
    _rejects(workload, _doctor(results, "check monotone #0",
                               **_edit_json(monotone, "stdout", ok=False, witness=[0, 1, 2, 3, 4])),
             "check monotone #0")
    one_switch = results["check one-switch"]
    _rejects(workload, _doctor(results, "check one-switch",
                               **_edit_json(one_switch, "stdout", max_switch_count=2)),
             "check one-switch")
    search = results["search #0"]
    _rejects(workload, _doctor(results, "search #0",
                               **_edit_json(search, "artifact", exhaustive=False)), "search #0")


def test_search_check_rejects_wrong_witness_and_size(tmp_path):
    workload, results = _honest_pass(_SmallTransitive, tmp_path)
    search = results["search #0"]
    got = json.loads(search.artifact)
    colors = workload.colors[0]
    wrong_color = "-" if got["color"] == "+" else "+"
    _rejects(workload, _doctor(results, "search #0",
                               **_edit_json(search, "artifact", color=wrong_color)), "search #0")
    shorter = got["witness"][:-1]
    assert exact.is_monochromatic(shorter, 3, colors, got["color"] == "+")
    _rejects(workload, _doctor(results, "search #0", **_edit_json(
        search, "artifact", witness=shorter, size=len(shorter))), "search #0")
    verdict = results["check transitive #0"]
    _rejects(workload, _doctor(results, "check transitive #0",
                               **_edit_json(verdict, "stdout", ok=False, witness=[0, 1, 2, 3])),
             "check transitive #0")


def test_perturbed_check_rejects_a_witness_that_is_no_violation(tmp_path):
    workload, results = _honest_pass(_SmallPerturbed, tmp_path)
    colors = workload.colors[0]
    innocent = next(big for big in combinations(range(workload.N), 4)
                    if not exact.is_transitivity_violation(big, colors))
    verdict = results["check transitive #0"]
    _rejects(workload, _doctor(results, "check transitive #0",
                               **_edit_json(verdict, "stdout", witness=list(innocent))),
             "check transitive #0")


def test_em_checks_reject_a_doctored_report(tmp_path):
    workload, results = _honest_pass(_SmallEm, tmp_path)
    workload.em3_result = dataclasses.replace(
        workload.em3_result, **_edit_json(workload.em3_result, "stdout", max_monotone=7))
    _rejects(workload, results, "generate em --m 3")


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lifted-d3",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
