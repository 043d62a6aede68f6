"""End-to-end command-line behavior, including exit codes."""

import json
import subprocess
import sys
import time

import pytest

from abr import parse_sequence

CLI = [sys.executable, "-m", "abr.cli"]

VIOLATING_TABLE = "i0,i1,color\n0,1,+\n0,2,-\n1,2,+\n"


def run(*args, stdin=None):
    proc = subprocess.run(CLI + list(args), input=stdin, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_no_arguments_is_usage_error():
    code, _, _ = run()
    assert code == 2


def test_generate_moment_roundtrip(tmp_path):
    out = tmp_path / "m.json"
    code, stdout, stderr = run("generate", "moment", "--d", "3", "--n", "6",
                               "-o", str(out))
    assert code == 0
    assert b"cyclic=valid" in stdout and b"general_position=valid" in stdout
    seq = parse_sequence(out.read_bytes())
    assert seq.dimension == 3 and len(seq) == 6


def test_generate_to_stdout_summary_on_stderr():
    code, stdout, stderr = run("generate", "moment", "--n", "5")
    assert code == 0
    seq = parse_sequence(stdout)
    assert len(seq) == 5
    assert b"kind=lifted" in stderr


def test_generate_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run("generate", "random", "--d", "2", "--n", "6", "--seed", "5", "-o", str(a))
    run("generate", "random", "--d", "2", "--n", "6", "--seed", "5", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_em_report(tmp_path):
    out = tmp_path / "em.json"
    code, stdout, _ = run("generate", "em", "--m", "2", "-o", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["m"] == 2 and report["n"] == 4
    assert report["exhaustive"] is True
    assert report["max_monotone"] == 4
    assert report["params"]["base"] == 2
    seq = parse_sequence(out.read_bytes())
    assert len(seq) == 4


def test_generate_em_no_verify():
    code, stdout, stderr = run("generate", "em", "--m", "2", "--base", "4",
                               "--no-verify", "-o", "/dev/null")
    assert code == 0
    report = json.loads(stdout)
    assert report["max_monotone"] is None and report["exhaustive"] is False
    assert report["params"]["base"] == 4


@pytest.mark.parametrize("argv, message", [
    (["--m", "6", "--no-verify"], "depth 6 means 2^(2^5) points"),
    (["--m", "1000000"], "depth 1000000 means 2^(2^999999) points"),
], ids=["m6-no-verify", "m1000000"])
def test_generate_em_refuses_depth_beyond_guard(tmp_path, capsys, argv, message):
    from abr import cli

    out = tmp_path / "em.json"
    start = time.perf_counter()
    code = cli.main(["generate", "em", *argv, "-o", str(out)])
    elapsed = time.perf_counter() - start
    stdout, stderr = capsys.readouterr()
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {message}, beyond the 16777216-point guard\n"
    assert elapsed < 1.0 and not out.exists()


def test_generate_cupcap_and_search_pipeline(tmp_path):
    out = tmp_path / "cc.json"
    run("generate", "cupcap", "--k", "4", "-o", str(out))
    code, stdout, _ = run("search", str(out), "--d", "2", "--k", "4")
    assert code == 0
    result = json.loads(stdout)
    assert result["size"] == 3 and result["exhaustive"] is True
    assert result["reached"] is False


def test_color_csv_and_json(tmp_path):
    src = tmp_path / "m.json"
    run("generate", "moment", "--n", "5", "-o", str(src))
    code, stdout, _ = run("color", str(src))
    assert code == 0
    assert stdout.startswith(b"i0,i1,i2,i3,color")
    code, stdout, _ = run("color", str(src), "--format", "json")
    obj = json.loads(stdout)
    assert obj["n"] == 5 and obj["r"] == 4 and len(obj["colors"]) == 5


def test_color_cross_check_reports_zero_mismatches(tmp_path):
    src = tmp_path / "m.json"
    run("generate", "random", "--d", "3", "--n", "6", "--seed", "3", "-o", str(src))
    code, stdout, stderr = run("color", str(src), "--cross-check", "-o",
                               str(tmp_path / "t.csv"))
    assert code == 0
    assert b"mismatches: 0" in stdout


def test_color_rejects_table_input():
    code, _, stderr = run("color", "-", stdin=VIOLATING_TABLE.encode())
    assert code == 2
    assert b"sequence" in stderr


def test_color_degenerate_is_exit_4(tmp_path):
    src = tmp_path / "z.json"
    run("generate", "moment", "--n", "6", "--heights", "zero", "-o", str(src))
    code, _, stderr = run("color", str(src))
    assert code == 4
    assert b"degenerate" in stderr.lower()


def test_color_reverse_orientation_repair(tmp_path):
    src = tmp_path / "m.json"
    run("generate", "moment", "--n", "5", "-o", str(src))
    seq = parse_sequence(src.read_bytes())
    rev = seq.reversed()
    from abr import serialize_sequence

    rev_file = tmp_path / "rev.json"
    rev_file.write_bytes(serialize_sequence(rev))
    code, _, _ = run("color", str(rev_file))
    assert code == 4
    code, stdout, _ = run("color", str(rev_file), "--reverse-orientation")
    assert code == 0
    _, fwd_table, _ = run("color", str(src))
    assert stdout == fwd_table


# reversal multiplies each d x d projection minor by (-1)^(d(d-1)/2), so it
# repairs neither a mixed d=2 input nor an all-negative d=4 one
UNREPAIRABLE = {
    "mixed-d2": (2, [[str(z), str(z * z)] for z in [*range(20, 0, -1), 100]], (0, 1)),
    "negative-d4": (4, [[str(t), str(t * t), str(-t ** 3), str(t ** 5 + 7 * t)]
                        for t in range(6)], (0, 1, 2, 3)),
}


@pytest.mark.parametrize("flag", [[], ["--reverse-orientation"]], ids=["plain", "reverse"])
@pytest.mark.parametrize("case", sorted(UNREPAIRABLE))
def test_unrepairable_orientation_is_not_cyclic(tmp_path, case, flag):
    d, points, witness = UNREPAIRABLE[case]
    src = _write_json(tmp_path / "s.json", {"kind": "lifted", "dimension": d,
                                            "points": points})
    code, stdout, stderr = run("color", src, *flag)
    assert (code, stdout) == (4, b"")
    assert stderr == f"error: projections are not cyclically ordered (witness {witness})\n".encode()


def test_sequence_input_is_decoded_once(tmp_path, monkeypatch):
    from abr import PlanarSequence, cli, moment_lift, serialize_sequence

    src = tmp_path / "m.json"
    src.write_bytes(serialize_sequence(moment_lift(
        PlanarSequence(tuple((t, t ** 3) for t in range(6))), 3)))
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: calls.append(1) or loads(*a, **kw))
    assert cli.main(["color", str(src), "-o", str(tmp_path / "t.csv")]) == 0
    assert len(calls) == 1


def test_check_monotone_ok_and_violation(tmp_path):
    src = tmp_path / "m.json"
    run("generate", "random", "--d", "2", "--n", "7", "--seed", "11", "-o", str(src))
    code, stdout, _ = run("check", "monotone", str(src))
    assert code == 0 and b"ok" in stdout
    code, stdout, _ = run("check", "monotone", "-", stdin=VIOLATING_TABLE.encode())
    assert code == 5
    assert b"witness=(0, 1, 2)" in stdout
    code, stdout, _ = run("check", "transitive", "-", "--format", "json",
                          stdin=VIOLATING_TABLE.encode())
    assert code == 5
    obj = json.loads(stdout)
    assert obj["ok"] is False and obj["witness"] == [0, 1, 2]


def test_check_one_switch(tmp_path):
    src = tmp_path / "m.json"
    run("generate", "random", "--d", "3", "--n", "7", "--seed", "8", "-o", str(src))
    code, stdout, _ = run("check", "one-switch", str(src), "--format", "json")
    assert code == 0
    obj = json.loads(stdout)
    assert obj["ok"] is True and obj["subtuples"] == 21
    assert obj["max_switch_count"] <= 1
    # too few points for any (d+2)-subtuple
    tiny = tmp_path / "tiny.json"
    run("generate", "moment", "--n", "4", "-o", str(tiny))
    code, _, _ = run("check", "one-switch", str(tiny))
    assert code == 2


def test_check_identities(tmp_path):
    lifted = tmp_path / "m.json"
    run("generate", "random", "--d", "2", "--n", "6", "--seed", "2", "-o", str(lifted))
    code, stdout, _ = run("check", "identities", str(lifted))
    assert code == 0 and b"ok" in stdout

    planar = tmp_path / "p.json"
    run("generate", "cupcap", "--k", "4", "-o", str(planar))
    code, stdout, _ = run("check", "identities", str(planar), "--d", "2")
    assert code == 0 and b"ok" in stdout


def test_search_budget_exit_codes(tmp_path):
    src = tmp_path / "m.json"
    run("generate", "moment", "--n", "7", "-o", str(src))
    table = tmp_path / "t.csv"
    run("color", str(src), "-o", str(table))
    code, stdout, _ = run("search", str(table))
    assert code == 0
    assert json.loads(stdout)["size"] == 7  # every tuple positive on this lift
    code, _, _ = run("search", str(table), "--budget", "1")
    assert code == 6
    code, _, _ = run("search", str(table), "--budget", "1", "--best-effort")
    assert code == 0


def test_search_reads_table_json(tmp_path):
    src = tmp_path / "m.json"
    run("generate", "moment", "--n", "5", "-o", str(src))
    table = tmp_path / "t.json"
    run("color", str(src), "--format", "json", "-o", str(table))
    code, stdout, _ = run("search", str(table))
    assert code == 0
    assert json.loads(stdout)["exhaustive"] is True


def test_parse_errors_are_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "planar", "points": [["1/1", "oops"]]}')
    code, _, stderr = run("color", str(bad))
    assert code == 2
    code, _, _ = run("color", str(tmp_path / "missing.json"))
    assert code == 2
    code, _, _ = run("check", "monotone", "-", stdin=b"i0,i1,color\n0,1,+\n1,2,-\n")
    assert code == 2  # indices reach 2 but the (0,2) pair is missing


def test_stdin_sequence_roundtrip():
    code, stdout, _ = run("generate", "moment", "--n", "5")
    assert code == 0
    code, table_csv, _ = run("color", "-", stdin=stdout)
    assert code == 0
    code, result, _ = run("search", "-", stdin=table_csv)
    assert code == 0
    assert json.loads(result)["size"] == 5


def test_generate_random_summary_reports_exhaustive_checks(tmp_path):
    # C(30, 4) = 27,405 tuples: more than the summary scan cap, all checked
    # by the generator itself
    out = tmp_path / "r.json"
    code, stdout, _ = run("generate", "random", "--d", "3", "--n", "30", "--seed", "1",
                          "-o", str(out))
    assert code == 0
    assert stdout == b"kind=lifted d=3 n=30 seed=1 cyclic=valid general_position=valid\n"
    assert len(parse_sequence(out.read_bytes())) == 30


@pytest.mark.parametrize("bits", ["0", "-4"])
def test_generate_random_rejects_nonpositive_bits(bits):
    code, stdout, stderr = run("generate", "random", "--n", "5", "--bits", bits)
    assert code == 2
    assert stdout == b""
    assert stderr == f"error: bits must be an integer >= 1, got {bits}\n".encode()


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("command", [
    ["color"], ["check", "monotone"], ["check", "one-switch"], ["search"],
])
def test_degenerate_lifted_input_witness(tmp_path, command):
    # points 0, 1, 4, 5 all lie on the surface h = z_2; earlier tuples do not
    points = [[str(t), str(t * t), str(t ** 3 if t < 4 else t * t)] for t in range(8)]
    src = _write_json(tmp_path / "s.json", {"kind": "lifted", "dimension": 3,
                                            "points": points})
    code, stdout, stderr = run(*command, src)
    assert code == 4
    assert stdout == b""
    assert stderr == b"error: degenerate lifted tuple (0, 1, 4, 5)\n"


@pytest.mark.parametrize("command", [
    ["color", "--d", "3"], ["check", "monotone", "--d", "3"], ["search", "--d", "3"],
])
def test_degenerate_planar_input_witness(tmp_path, command):
    points = [[str(t), str(t * t)] for t in range(7)]
    src = _write_json(tmp_path / "p.json", {"kind": "planar", "points": points})
    code, stdout, stderr = run(*command[:-2], src, *command[-2:])
    assert code == 4
    assert stdout == b""
    if command[0] == "color":  # colored through the moment lift
        assert stderr == b"error: degenerate lifted tuple (0, 1, 2, 3)\n"
    else:
        assert stderr == b"error: divided difference vanishes\n"


def test_generate_moment_capped_summary_builds_few_minors(tmp_path, monkeypatch, capsys):
    from math import comb

    from abr import cli, linalg

    calls = []
    bareiss = linalg._int_det_bareiss
    monkeypatch.setattr(linalg, "_int_det_bareiss", lambda a: calls.append(1) or bareiss(a))
    out = tmp_path / "m.json"
    assert cli.main(["generate", "moment", "--d", "3", "--n", "400", "-o", str(out)]) == 0
    assert capsys.readouterr().out == (
        "kind=lifted d=3 n=400 cyclic=unverified general_position=unverified\n")
    # the capped scans touch at most 20,000 tuples each, never all C(400, 3) minors
    assert len(calls) <= 5 * 20000 < comb(400, 3)


@pytest.mark.parametrize("text, message", [
    ('{"n": -3, "r": 2, "colors": ""}', "need integer n >= r >= 2, got n=-3, r=2"),
    ('{"n": 4000000, "r": 2000000, "colors": ""}',
     "C(n, 2000000) tuples exceed the dense-table guard"),
    ('{"n": 1' + "0" * 5000 + ', "r": 2, "colors": ""}',
     "a JSON integer has more than 4300 digits"),
    ("i0,i1,color\n0," + "9" * 4000 + ",+\n", "C(n, 2) tuples exceed the dense-table guard"),
    (json.dumps({"kind": "planar", "points": [["1" * 5000, "1"]]}),
     "point 0: rational has more than 4300 digits"),
    (json.dumps({"kind": "planar", "points": [["١", "1"]]}),
     "point 0: malformed rational '١'; expected 'p/q' or 'p'"),
    (json.dumps({"kind": "planar", "points": [["3\n", "1"]]}),
     "point 0: malformed rational '3\\n'; expected 'p/q' or 'p'"),
    ("i0,i1,color\n0,\u0661,+\n", "bad index '\u0661' in row 2; expected ASCII digits"),
    ("i0,i1,color\n0, 1 ,+\n", "bad index ' 1 ' in row 2; expected ASCII digits"),
    ("i0,i1,color\n0,1_0,+\n", "bad index '1_0' in row 2; expected ASCII digits"),
    ('{"a":' + "[" * 100000 + "]" * 100000 + "}", "JSON input is nested too deeply"),
    ("i0,i1,color\n0,1,+\n0,2,x\n", "bad color 'x' (line 3)"),
], ids=["negative-n", "huge-n-r", "long-json-int", "long-csv-index", "long-rational",
        "arabic-digit", "trailing-newline", "csv-arabic-index", "csv-spaced-index",
        "csv-underscore-index", "deep-json", "csv-bad-color"])
def test_hostile_input_is_one_line_exit_2(tmp_path, capsys, text, message):
    from abr import cli

    src = tmp_path / "in"
    src.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code = cli.main(["check", "monotone", str(src)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert elapsed < 1.0


def test_over_long_output_number_is_one_line_exit_2(tmp_path):
    out = tmp_path / "F.json"
    code, stdout, stderr = run("generate", "random", "--d", "2", "--n", "3",
                               "--bits", "15000", "-o", str(out))
    assert (code, stdout) == (2, b"")
    assert stderr == b"error: an output number has more than 4300 digits\n"
    assert not out.exists()
