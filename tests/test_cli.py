"""End-to-end command-line behavior, including exit codes."""

import json
import subprocess
import sys
import time
from math import comb

import pytest

from abr import parse_sequence

from _helpers import fail_base_search, rand_table, seeded

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
    assert report["method"] == "monotone-path"
    assert report["params"]["base"] == 2
    seq = parse_sequence(out.read_bytes())
    assert len(seq) == 4


def test_generate_em_no_verify():
    code, stdout, stderr = run("generate", "em", "--m", "2", "--base", "4",
                               "--no-verify", "-o", "/dev/null")
    assert code == 0
    report = json.loads(stdout)
    assert report["max_monotone"] is None and report["exhaustive"] is False
    assert report["method"] is None
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


def test_generate_em_names_each_failed_base(tmp_path, monkeypatch, capsys):
    from abr import cli

    attempts = fail_base_search(monkeypatch)
    out = tmp_path / "E"
    assert cli.main(["generate", "em", "--m", "2", "--max-base", "4", "-o", str(out)]) == 3
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert stderr == "error: no base in [2, 4] yields a verified depth-2 instance\n" + "".join(
        f"  base {base}: {reason}\n" for base, reason in attempts)


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


@pytest.mark.parametrize("d, n, heights, flip", [
    (2, 9, "random", False), (3, 8, "power", True), (3, 7, "zero", False), (4, 8, "random", True),
], ids=["d2-random", "d3-reversed", "d3-flat", "d4-reversed-random"])
def test_lifted_identities_build_no_matrix(tmp_path, monkeypatch, capsys, d, n, heights, flip):
    # cyclic, reversed and degenerate input alike: every three-term relation
    # of every (d+2)-tuple is checked on the kernel's integer minors.
    # coloring is imported first, so that its own bindings are patched and
    # restored too, and a matrix built through them is caught as well
    from abr import cli, coloring, linalg

    src = tmp_path / "m.json"
    cli.main(["generate", "moment", "--d", str(d), "--n", str(n), "--heights", heights,
              "-o", str(src)])
    if flip:
        obj = json.loads(src.read_text())
        _write_json(src, {**obj, "points": obj["points"][::-1]})
    capsys.readouterr()

    def forbidden(*args, **kwargs):
        raise AssertionError("a Fraction matrix was built")

    for module in (linalg, coloring):
        for name in ("Matrix", "det", "plucker_residual"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    assert (cli.main(["check", "identities", str(src)]), *capsys.readouterr()) == (
        0, f"identities: ok checked={comb(n, d + 2) * comb(d + 2, 4)}\n", "")


def test_corrupted_kernel_minor_fails_the_identities(tmp_path, monkeypatch, capsys):
    # minor (0, 1, 2) is the one that deletes positions 3 and 4 of the first
    # tuple; the first relation to read it is that of columns (0, 1, 3, 4),
    # whose residual is then the minor deleting positions 0 and 1
    from abr import cli, linalg

    src = tmp_path / "m.json"
    cli.main(["generate", "moment", "--n", "6", "-o", str(src)])
    capsys.readouterr()
    want = parse_sequence(src.read_text()).kernel.minor((2, 3, 4))
    minor = linalg.SignKernel.minor
    monkeypatch.setattr(linalg.SignKernel, "minor",
                        lambda self, sub: minor(self, sub) + (sub == (0, 1, 2)))
    assert (cli.main(["check", "identities", str(src)]), *capsys.readouterr()) == (
        5, "", f"error: three-term minor residual {want} at (0, 1, 2, 3, 4) columns (0, 1, 3, 4)\n")


def test_lifted_identities_take_seconds(tmp_path):
    # 77,520 relations of C(20, 5) tuples, from the kernel's cached minors
    src = tmp_path / "m.json"
    run("generate", "moment", "--n", "20", "--d", "3", "-o", str(src))
    start = time.perf_counter()
    result = run("check", "identities", str(src))
    elapsed = time.perf_counter() - start
    assert result == (0, b"identities: ok checked=77520\n", b"")
    assert elapsed < 5.0


def test_search_budget_exit_codes(tmp_path):
    src = tmp_path / "m.json"
    run("generate", "moment", "--n", "7", "-o", str(src))
    table = tmp_path / "t.csv"
    run("color", str(src), "-o", str(table))
    # every tuple is + on this lift: the window DP certifies the whole set,
    # and the budget of the branch and bound is never read
    code, stdout, stderr = run("search", str(table), "--budget", "1")
    assert (code, stderr) == (0, b"")
    got = json.loads(stdout)
    assert (got["size"], got["exhaustive"], got["method"], got["nodes_visited"]) == (
        7, True, "monotone-path", comb(7, 3))
    # not transitive, and its lex-least longest window path is not
    # monochromatic: the branch and bound answers, under the budget
    coin = tmp_path / "coin.csv"
    coin.write_text(rand_table(seeded(0), 9, 3).to_csv())
    code, stdout, _ = run("search", str(coin))
    assert code == 0
    assert json.loads(stdout)["method"] == "branch-and-bound"
    code, stdout, stderr = run("search", str(coin), "--budget", "1")
    assert (code, stderr) == (6, b"budget exhausted after 2 nodes\n")
    assert json.loads(stdout)["exhaustive"] is False
    code, _, _ = run("search", str(coin), "--budget", "1", "--best-effort")
    assert code == 0
    # budget 0 stops at the root, before any set is found
    empty = {"size": 0, "witness": [], "exhaustive": False, "nodes_visited": 1}
    for flags, want in (([], 6), (["--best-effort"], 0)):
        code, stdout, stderr = run("search", str(coin), "--budget", "0", *flags)
        assert (code, stderr) == (want, b"budget exhausted after 1 nodes\n")
        assert {key: json.loads(stdout)[key] for key in empty} == empty
    for source in (table, src):  # a negative budget, for table and sequence alike
        code, stdout, stderr = run("search", str(source), "--budget", "-3")
        assert (code, stdout) == (2, b"")
        assert stderr == b"error: budget must be an integer >= 0, got -3\n"


def test_search_of_the_cupcap_k6_table_takes_under_a_second(tmp_path):
    # 70 points, r = 3: the branch and bound visits 517,016 nodes (about 2 s);
    # the window DP settles C(70, 2) = 2,415 windows
    src, table = tmp_path / "c.json", tmp_path / "c.csv"
    run("generate", "cupcap", "--k", "6", "-o", str(src))
    run("color", str(src), "--d", "2", "-o", str(table))
    start = time.perf_counter()
    code, stdout, _ = run("search", str(table))
    elapsed = time.perf_counter() - start
    assert code == 0
    got = json.loads(stdout)
    assert (got["size"], got["witness"], got["method"]) == (5, [0, 1, 2, 3, 4], "monotone-path")
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("d, n, seed", [(2, 11, 4), (3, 12, 5), (4, 10, 6)])
def test_lifted_search_matches_the_search_of_its_table(tmp_path, d, n, seed):
    from math import comb

    src, table = tmp_path / "s.json", tmp_path / "t.csv"
    run("generate", "random", "--d", str(d), "--n", str(n), "--seed", str(seed), "-o", str(src))
    run("color", str(src), "-o", str(table))
    _, by_table, _ = run("search", str(table))
    code, by_sequence, stderr = run("search", str(src), "--budget", "1")
    assert (code, stderr) == (0, b"")  # the monotone-path DP takes no budget
    got, want = json.loads(by_sequence), json.loads(by_table)
    assert (got["method"], got["nodes_visited"], got["exhaustive"]) == (
        "monotone-path", comb(n, d), True)
    assert [got[k] for k in ("size", "witness", "color")] == [
        want[k] for k in ("size", "witness", "color")]


def test_lifted_search_reverse_orientation_repair(tmp_path):
    from abr import serialize_sequence

    src, rev = tmp_path / "s.json", tmp_path / "rev.json"
    run("generate", "random", "--d", "3", "--n", "9", "--seed", "2", "-o", str(src))
    rev.write_bytes(serialize_sequence(parse_sequence(src.read_bytes()).reversed()))
    code, stdout, stderr = run("search", str(rev))
    assert (code, stdout) == (4, b"")
    assert stderr.startswith(b"error: projections are cyclically ordered only after reversal")
    code, repaired, _ = run("search", str(rev), "--reverse-orientation")
    assert code == 0 and repaired == run("search", str(src))[1]


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


def test_unwritable_output_is_one_line_exit_2(tmp_path):
    # a directory, or a file in a directory that does not exist: no
    # traceback, nothing on stdout, one error line
    table = tmp_path / "t.csv"
    table.write_text(VIOLATING_TABLE)
    for target in (tmp_path, tmp_path / "missing" / "x.json"):
        for command in (("generate", "cupcap", "--k", "4"), ("search", str(table))):
            code, stdout, stderr = run(*command, "-o", str(target))
            assert (code, stdout) == (2, b"")
            assert stderr.startswith(f"error: cannot write {target}: ".encode())
            assert stderr.count(b"\n") == 1
    assert not (tmp_path / "missing").exists()


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


def test_generate_random_reports_a_failed_draw_before_the_window_guard(tmp_path, capsys):
    # the window guard of --d 15 --n 27 (exit 2) waits for the draw, so a
    # draw that fails is reported first
    from abr import cli

    out = tmp_path / "r.json"
    start = time.perf_counter()
    argv = ["generate", "random", "--d", "15", "--n", "27", "--bits", "1", "-o", str(out)]
    assert cli.main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", "error: could not draw 27 distinct 1-bit rationals; raise the bit budget\n")
    assert not out.exists()


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("bits, code", [(2126, 0), (2127, 2)])
def test_generate_random_refuses_exactly_the_unprintable_bits(tmp_path, monkeypatch, capsys,
                                                              bits, code):
    # at Python's least digit limit, 640: 2^2126 - 1 has 640 digits, 2^2127 - 1 has 641
    from abr import cli, constructions

    if code:
        monkeypatch.setattr(constructions, "_random_rational", None)  # refused before a draw
    out = tmp_path / "r.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        argv = ["generate", "random", "--d", "2", "--n", "3", "--bits", str(bits)]
        assert cli.main([*argv, "-o", str(out)]) == code
    finally:
        sys.set_int_max_str_digits(limit)
    if code:
        assert capsys.readouterr().err == "error: an output number has more than 640 digits\n"
        assert not out.exists()
    else:
        assert len(parse_sequence(out.read_bytes())) == 3


@pytest.mark.parametrize("command, kind, n, message", [
    (["color"], "lifted", 200, "64684950 tuples"),
    (["color", "--d", "3"], "planar", 200, "64684950 tuples"),
    (["check", "monotone"], "lifted", 200, "64684950 tuples"),
    (["check", "transitive"], "lifted", 200, "64684950 tuples"),
    (["check", "one-switch"], "lifted", 100, "75287520 certificates"),
    (["search"], "lifted", 500, "20708500 windows"),
], ids=["color", "color-planar", "monotone", "transitive", "one-switch", "search"])
def test_over_guard_lifted_work_is_refused_before_any_minor(tmp_path, monkeypatch, capsys,
                                                            command, kind, n, message):
    # The moment curve backwards: the orientation scan would call it not
    # cyclic (exit 4), but the guard of the command's work refuses first.
    from abr import cli, linalg

    def forbidden(grid):
        raise AssertionError("a Bareiss minor was formed")

    monkeypatch.setattr(linalg, "_int_det_bareiss", forbidden)  # read by lifted keys too
    ts = range(n, 0, -1) if kind == "lifted" else range(n)
    obj = ({"kind": "lifted", "dimension": 3,
            "points": [[str(t), str(t * t), str(t ** 3)] for t in ts]} if kind == "lifted"
           else {"kind": "planar", "points": [[str(t), str(t ** 3)] for t in ts]})
    src = _write_json(tmp_path / "s.json", obj)
    start = time.perf_counter()
    code = cli.main([*command, src])
    elapsed = time.perf_counter() - start
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: {message} exceed the dense-table guard\n")
    assert elapsed < 1.0


def test_valid_lifted_input_is_checked_once(tmp_path, monkeypatch, capsys):
    # the key engine that builds the colors is the only check of cyclic order
    # and general position: with both validators broken, valid input gives
    # the same exit codes, messages and artifacts
    from abr import cli, sequences

    planar = [[str(t), str(t ** 4)] for t in range(1, 11)]
    _write_json(tmp_path / "P", {"kind": "planar", "points": planar})
    commands = [["generate", "random", "--d", "3", "--n", "16", "-o", "R"],
                ["color", "R", "-o", "A"], ["check", "monotone", "R"],
                ["check", "one-switch", "R"], ["search", "R", "-o", "A"],
                ["color", "P", "--d", "3", "-o", "A"], ["check", "one-switch", "P"]]

    def outcomes():
        runs = []
        for argv in commands:
            paths = [str(tmp_path / arg) if arg in ("R", "P", "A") else arg for arg in argv]
            code = cli.main(paths)
            artifact = (tmp_path / argv[-1]).read_bytes() if "-o" in argv else None
            runs.append((code, *capsys.readouterr(), artifact))
        return runs

    want = outcomes()
    assert [code for code, *_ in want] == [0] * len(commands)

    def forbidden(s, **kwargs):
        raise AssertionError("a validator scanned a valid sequence")

    monkeypatch.setattr(sequences, "validate_cyclic_projections", forbidden)
    monkeypatch.setattr(sequences, "validate_general_position", forbidden)
    assert outcomes() == want


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
    if command[0] == "color":  # the closed-form table, reported as the lift's
        assert stderr == b"error: degenerate lifted tuple (0, 1, 2, 3)\n"
    else:
        assert stderr == b"error: divided difference vanishes at (0, 1, 2, 3)\n"


@pytest.mark.parametrize("command, d, message", [
    (["color"], 4000, "need at least 4000 points, got 5"),
    (["color"], 5, "need at least 6 points, got 5"),
    (["check", "one-switch"], 4000, "need at least 4000 points, got 5"),
    (["check", "monotone"], 4000, "need integer n >= r >= 2, got n=5, r=4001"),
    (["check", "transitive"], 5, "need integer n >= r >= 2, got n=5, r=6"),
    (["search"], 4000, "need integer n >= r >= 2, got n=5, r=4001"),
], ids=["color-4000", "color-5", "one-switch-4000", "monotone-4000", "transitive-5",
        "search-4000"])
def test_short_planar_input_is_refused_before_any_power(tmp_path, monkeypatch, capsys,
                                                         command, d, message):
    from abr import cli, paths, sequences

    def forbidden(points, order):
        raise AssertionError(f"powers of t formed for order {order}")

    monkeypatch.setattr(sequences, "moment_coordinates", forbidden)
    monkeypatch.setattr(paths, "_window_keys", forbidden)
    points = [[str(t), str(t * t)] for t in range(5)]
    src = _write_json(tmp_path / "p.json", {"kind": "planar", "points": points})
    assert cli.main([*command, src, "--d", str(d)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


_CHECK = ["check", "monotone"]
_FIVE_PLANAR = json.dumps({"kind": "planar", "points": [[str(t), str(t ** 3)] for t in range(5)]})


@pytest.mark.parametrize("text, message, command", [
    ('{"n": -3, "r": 2, "colors": ""}', "need integer n >= r >= 2, got n=-3, r=2", _CHECK),
    ('{"n": 4000000, "r": 2000000, "colors": ""}',
     "C(n, 2000000) tuples exceed the dense-table guard", _CHECK),
    ('{"n": 1' + "0" * 5000 + ', "r": 2, "colors": ""}',
     "a JSON integer has more than 4300 digits", _CHECK),
    ("i0,i1,color\n0," + "9" * 4000 + ",+\n", "C(n, 2) tuples exceed the dense-table guard",
     _CHECK),
    (json.dumps({"kind": "planar", "points": [["1" * 5000, "1"]]}),
     "point 0: rational has more than 4300 digits", _CHECK),
    (json.dumps({"kind": "planar", "points": [["١", "1"]]}),
     "point 0: malformed rational '١'; expected 'p/q' or 'p'", _CHECK),
    (json.dumps({"kind": "planar", "points": [["3\n", "1"]]}),
     "point 0: malformed rational '3\\n'; expected 'p/q' or 'p'", _CHECK),
    ("i0,i1,color\n0,\u0661,+\n", "bad index '\u0661' in row 2; expected ASCII digits", _CHECK),
    ("i0,i1,color\n0, 1 ,+\n", "bad index ' 1 ' in row 2; expected ASCII digits", _CHECK),
    ("i0,i1,color\n0,1_0,+\n", "bad index '1_0' in row 2; expected ASCII digits", _CHECK),
    ('{"a":' + "[" * 100000 + "]" * 100000 + "}", "JSON input is nested too deeply", _CHECK),
    ("i0,i1,color\n0,1,+\n0,2,x\n", "bad color 'x' (line 3)", _CHECK),
    # C(500, 3) windows of the planar search, refused before any divided difference
    (json.dumps({"kind": "planar", "points": [[str(t), str(t ** 3)] for t in range(500)]}),
     "20708500 windows exceed the dense-table guard", ["search", "--d", "3"]),
    # orders and dimensions below 1 and 2, refused before any power of t
    (_FIVE_PLANAR, "order must be a positive int, got -3", ["check", "identities", "--d", "-3"]),
    (_FIVE_PLANAR, "order must be a positive int, got 0", ["check", "identities", "--d", "0"]),
    (_FIVE_PLANAR, "order must be a positive int, got -1", ["check", "identities", "--d", "-1"]),
    (None, "lift dimension must be an int >= 2, got -2",
     ["generate", "moment", "--n", "3", "--d", "-2"]),
    # output numbers of more than 4300 digits, refused before any power of t:
    # 2^14285 has 4301 digits
    (None, "an output number has more than 4300 digits",
     ["generate", "moment", "--n", "3", "--d", "1000000000"]),
    (None, "an output number has more than 4300 digits",
     ["generate", "moment", "--n", "3", "--d", "14285"]),
    (None, "an output number has more than 4300 digits",
     ["generate", "moment", "--n", "3", "--d", "14286", "--heights", "zero"]),
    (None, "an output number has more than 4300 digits",
     ["generate", "moment", "--n", "1000001", "--d", "800", "--heights", "random"]),
    # C(n, d) windows past the guard that ``search`` applies, refused before
    # any point: C(467, 3) = 16,865,705 and C(466, 3) is admitted
    (None, "C(n, 2) windows exceed the dense-table guard",
     ["generate", "moment", "--n", "100000000", "--d", "2"]),
    (None, "16865705 windows exceed the dense-table guard",
     ["generate", "moment", "--n", "467", "--d", "3"]),
    # the output's digits, bounded from bit lengths before any point: about
    # 1 GB of digits here, while --n 300 --d 300 (28 MB) is admitted
    (None, "output of up to 1355459753 digits exceeds the 67108864-digit guard",
     ["generate", "moment", "--n", "1000", "--d", "1000"]),
    # two nodes, 0 and 1, print at any power: d coordinates per point
    (None, "lift dimension 1000000000 exceeds the 16384-coordinate guard",
     ["generate", "moment", "--n", "2", "--d", "1000000000"]),
    # refused before any draw: 2^20000 - 1 does not print, and each draw of
    # 400 points would be checked on C(400, 4) tuples
    (None, "an output number has more than 4300 digits",
     ["generate", "random", "--n", "5", "--bits", "20000"]),
    (None, "1050739900 tuples exceed the dense-table guard",
     ["generate", "random", "--d", "3", "--n", "400"]),
    # C(27, 16) = 13,037,895 tuples pass that guard; the C(27, 15) windows
    # of the monotone-path search are refused after the draw, before any key
    (None, "17383860 windows exceed the dense-table guard",
     ["generate", "random", "--d", "15", "--n", "27"]),
    # a depth-4 instance at base 2^80 does not print, refused before the
    # verification search
    (None, "an output number has more than 4300 digits",
     ["generate", "em", "--m", "4", "--base", str(2 ** 80), "--max-base", str(2 ** 80)]),
    # the identities of C(200, 5) lifted and C(200, 4) planar tuples,
    # refused before any determinant
    (json.dumps({"kind": "lifted", "dimension": 3,
                 "points": [[str(t), str(t * t), str(t ** 3)] for t in range(200)]}),
     "2535650040 tuples exceed the dense-table guard", ["check", "identities"]),
    (json.dumps({"kind": "planar", "points": [[str(t), str(t ** 3)] for t in range(200)]}),
     "64684950 tuples exceed the dense-table guard", ["check", "identities", "--d", "3"]),
    # C(n, d+1)·(d+1)² cells of planar residual determinants past 2^24,
    # refused before any: C(73, 4)·16 and C(20, 11)·121
    (json.dumps({"kind": "planar", "points": [[str(t), str(t ** 3)] for t in range(73)]}),
     "17414880 determinant cells exceed the dense-table guard",
     ["check", "identities", "--d", "3"]),
    (json.dumps({"kind": "planar", "points": [[str(t), str(t ** 3)] for t in range(20)]}),
     "20323160 determinant cells exceed the dense-table guard",
     ["check", "identities", "--d", "10"]),
    # cup/cap sets whose C(2k-4, k-2) points have more than 2^24 windows,
    # refused before any point: a larger k before the binomial
    (None, "82812015 windows exceed the dense-table guard", ["generate", "cupcap", "--k", "10"]),
    (None, "C(2k-4, k-2) points exceed the dense-table guard",
     ["generate", "cupcap", "--k", "600"]),
    (None, "C(2k-4, k-2) points exceed the dense-table guard",
     ["generate", "cupcap", "--k", "1000000000"]),
    # a negative node budget, refused before the input is read
    ("i0,i1,color\n0,1,+\n", "budget must be an integer >= 0, got -3",
     ["search", "--budget", "-3"]),
    (_FIVE_PLANAR, "budget must be an integer >= 0, got -1", ["search", "--budget", "-1"]),
    # a target size below 1, refused before the input is read
    ("i0,i1,color\n0,1,+\n", "k must be an integer >= 1, got -1", ["search", "--k", "-1"]),
    (_FIVE_PLANAR, "k must be an integer >= 1, got 0", ["search", "--k", "0"]),
], ids=["negative-n", "huge-n-r", "long-json-int", "long-csv-index", "long-rational",
        "arabic-digit", "trailing-newline", "csv-arabic-index", "csv-spaced-index",
        "csv-underscore-index", "deep-json", "csv-bad-color", "planar-search-windows",
        "identities-order-minus-3", "identities-order-0", "identities-order-minus-1",
        "moment-dimension-minus-2", "moment-dimension-1e9", "moment-power-boundary",
        "moment-zero-boundary", "moment-many-points", "moment-windows-n-1e8",
        "moment-windows-boundary", "moment-output-digits", "moment-two-points-d-1e9",
        "random-bits-20000", "random-n-400", "random-windows-d-15", "em-base-2-80",
        "identities-lifted-200", "identities-planar-200", "identities-planar-73-cells",
        "identities-planar-order-10-cells", "cupcap-k-10", "cupcap-k-600",
        "cupcap-k-1e9", "search-budget-negative-table", "search-budget-negative-sequence",
        "search-k-negative-table", "search-k-zero-sequence"])
def test_hostile_input_is_one_line_exit_2(tmp_path, capsys, text, message, command):
    from abr import cli

    argv = command  # a generator reads no input
    if text is not None:
        src = tmp_path / "in"
        src.write_text(text, encoding="utf-8")
        argv = [*command, str(src)]
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("n, d", [(72, 3), (19, 10)])
def test_planar_identities_admit_cells_up_to_the_guard(tmp_path, monkeypatch, capsys, n, d):
    # the admitted side of the cell guard: C(72, 4)·16 = 16,460,640 and
    # C(19, 11)·121 = 9,145,422 cells are at most 2^24; every residual is
    # stubbed to 0, so only the guard and the tuple walk run
    from abr import cli, coloring

    monkeypatch.setattr(coloring, "vandermonde_divdiff_residual", lambda points: 0)
    src = tmp_path / "in"
    src.write_text(json.dumps({"kind": "planar",
                               "points": [[str(t), str(t ** 3)] for t in range(n)]}))
    assert cli.main(["check", "identities", "--d", str(d), str(src)]) == 0
    assert capsys.readouterr() == (f"identities: ok checked={comb(n, d + 1)}\n", "")


@pytest.mark.parametrize("d, code", [(2127, 0), (2128, 2)])
def test_generate_moment_refuses_exactly_the_unprintable(tmp_path, capsys, d, code):
    # at Python's least digit limit, 640, the boundary is cheap to build:
    # 2^2126 has 640 digits and 2^2127 has 641
    from abr import cli

    out = tmp_path / "m.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        argv = ["generate", "moment", "--n", "3", "--d", str(d), "--heights", "zero"]
        assert cli.main([*argv, "-o", str(out)]) == code
    finally:
        sys.set_int_max_str_digits(limit)
    if code:
        assert capsys.readouterr().err == "error: an output number has more than 640 digits\n"
        assert not out.exists()
    else:
        points = json.loads(out.read_text())["points"]
        assert max(len(x.split("/")[0]) for point in points for x in point) == 640


@pytest.mark.parametrize("n, d, limit, code", [
    (2, 16384, None, 0), (2, 16385, None, 2), (1, 16385, None, 2),
    (2, 10 ** 9, 0, 2), (3, 10 ** 9, 0, 2), (40000, 16385, 0, 2)])
def test_generate_moment_bounds_the_lift_dimension(tmp_path, capsys, n, d, limit, code):
    # d coordinates per point; one or two points print at any power, and a
    # digit limit of 0 turns the digit guard off, so only this guard is left
    from abr import cli

    out = tmp_path / "m.json"
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(saved if limit is None else limit)
    try:
        start = time.perf_counter()
        assert cli.main(["generate", "moment", "--n", str(n), "--d", str(d),
                         "-o", str(out)]) == code
        assert time.perf_counter() - start < 1.0
    finally:
        sys.set_int_max_str_digits(saved)
    if code:
        err = f"error: lift dimension {d} exceeds the 16384-coordinate guard\n"
        assert capsys.readouterr().err == err
        assert not out.exists()
    else:
        points = json.loads(out.read_text())["points"]
        assert [len(point) for point in points] == [d] * n


@pytest.mark.parametrize("n, d, admitted", [(300, 300, True), (1000, 1000, False)])
def test_generate_moment_bounds_the_output_digits(monkeypatch, capsys, n, d, admitted):
    # --n 300 --d 300 writes 28 MB and reaches the first point; --n 1000
    # --d 1000 would write about 1 GB and is refused before it
    from abr import cli, cli_sequences

    class Formed(Exception):
        pass

    def formed(*args):
        raise Formed

    monkeypatch.setattr(cli_sequences, "_moment_heights", formed)
    argv = ["generate", "moment", "--n", str(n), "--d", str(d)]
    if admitted:
        with pytest.raises(Formed):
            cli.main(argv)
    else:
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output of up to ") and err.count("\n") == 1


def test_over_long_output_number_is_one_line_exit_2(tmp_path):
    out = tmp_path / "F.json"
    code, stdout, stderr = run("generate", "random", "--d", "2", "--n", "3",
                               "--bits", "15000", "-o", str(out))
    assert (code, stdout) == (2, b"")
    assert stderr == b"error: an output number has more than 4300 digits\n"
    assert not out.exists()
