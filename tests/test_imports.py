"""Each abr command loads only the modules it runs.

Every case runs in a fresh interpreter, because this test process has
already loaded every module of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import abr
from abr import Color, ColoringTable

SRC = str(Path(abr.__file__).resolve().parent.parent)

SCRIPT = """
import json, sys
from abr.cli import main
for argv in json.loads(sys.argv[1]):
    main(argv)
watched = ("fractions", "dataclasses", "inspect")
print(json.dumps(sorted(m for m in sys.modules if m in watched or m.startswith("abr"))),
      file=sys.stderr)
"""


def _loaded(cwd, *argvs):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argvs)], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(proc.stderr.splitlines()[-1]))


def test_table_commands_load_only_cli_errors_and_tables(tmp_path):
    # nor dataclasses, whose import pulls in inspect, ast, dis and tokenize;
    # only a search loads the search code
    table = ColoringTable.from_function(
        8, 3, lambda tup: Color.POSITIVE if sum(tup) % 3 else Color.NEGATIVE)
    (tmp_path / "t.csv").write_text(table.to_csv())
    loaded = _loaded(tmp_path, ["check", "transitive", "t.csv", "--format", "json"])
    assert loaded == {"abr", "abr.cli", "abr.errors", "abr.tables"}
    # rows in another order are read by the same loop, with nothing more loaded
    header, *rows = table.to_csv().splitlines()
    (tmp_path / "s.csv").write_text("\n".join([header] + rows[::-1]) + "\n")
    assert _loaded(tmp_path, ["check", "transitive", "s.csv", "--format", "json"]) == loaded
    loaded = _loaded(tmp_path, ["search", "t.csv", "-o", "F"])
    assert (tmp_path / "F").read_bytes().startswith(b'{"color":')
    assert loaded == {"abr", "abr.cli", "abr.errors", "abr.search", "abr.tables"}


def _planar(cwd):
    points = [[str(t), str(t ** 3 + t % 3)] for t in range(9)]
    (cwd / "p.json").write_text(json.dumps({"kind": "planar", "points": points}))


def _lifted(cwd):
    points = [[str(t), str(t * t), str(t ** 3 + t % 3)] for t in range(9)]
    (cwd / "s.json").write_text(json.dumps({"kind": "lifted", "dimension": 3,
                                            "points": points}))


def test_planar_search_does_not_load_constructions(tmp_path):
    _planar(tmp_path)
    loaded = _loaded(tmp_path, ["search", "p.json", "--d", "3", "-o", "F"])
    assert "abr.sequences" in loaded and "abr.constructions" not in loaded


def test_planar_check_and_search_load_no_coloring_or_dataclasses(tmp_path):
    # both build from the keys of abr.paths, with no sequence command
    _planar(tmp_path)
    for argv in (["check", "monotone", "p.json", "--d", "3", "--format", "json"],
                 ["search", "p.json", "--d", "3", "-o", "F"]):
        loaded = _loaded(tmp_path, argv)
        assert "abr.paths" in loaded
        assert not loaded & {"abr.cli_sequences", "abr.coloring", "dataclasses", "inspect"}


def test_planar_commands_load_no_linalg(tmp_path):
    # planar keys are in closed form, with no determinant; only a search
    # loads the search code, and only color's cross-check the color oracles
    _planar(tmp_path)
    planar = {"abr", "abr.cli", "abr.errors", "abr.paths", "abr.sequences", "abr.tables",
              "fractions"}
    for what in ("monotone", "transitive"):
        argv = ["check", what, "p.json", "--d", "3", "--format", "json"]
        assert _loaded(tmp_path, argv) == planar
    loaded = _loaded(tmp_path, ["search", "p.json", "--d", "3", "-o", "F"])
    assert json.loads((tmp_path / "F").read_text())["method"] == "monotone-path"
    assert loaded == planar | {"abr.search"}
    loaded = _loaded(tmp_path, ["color", "p.json", "--d", "3", "-o", "C"])
    assert (tmp_path / "C").read_text().startswith("i0,i1,i2,i3,color\n")
    assert loaded == planar | {"abr.cli_sequences"}
    loaded = _loaded(tmp_path, ["color", "p.json", "--d", "3", "-o", "C", "--cross-check"])
    assert {"abr.coloring", "abr.linalg"} <= loaded


def test_generate_em_loads_no_linalg(tmp_path):
    loaded = _loaded(tmp_path, ["generate", "em", "--m", "2", "-o", "E"])
    assert json.loads((tmp_path / "E").read_text())["kind"] == "planar"
    assert "abr.constructions" in loaded and "abr.linalg" not in loaded


def test_unverified_generators_load_no_paths_or_search(tmp_path):
    # constructions imports the key engine and the search only where they run
    for argv in (["generate", "em", "--m", "2", "--no-verify", "-o", "E"],
                 ["generate", "cupcap", "--k", "5", "-o", "K"],
                 ["generate", "moment", "--d", "3", "--n", "8", "--heights", "random",
                  "-o", "M"]):
        loaded = _loaded(tmp_path, argv)
        assert "abr.constructions" in loaded
        assert not loaded & {"abr.paths", "abr.search"}, argv


def test_sequence_commands_load_cli_sequences(tmp_path):
    _lifted(tmp_path)
    for argv in (["generate", "random", "--d", "3", "--n", "6", "-o", "R"],
                 ["color", "s.json", "-o", "C"],
                 ["check", "one-switch", "s.json", "--format", "json"],
                 ["search", "s.json", "-o", "F"]):
        assert "abr.cli_sequences" in _loaded(tmp_path, argv)


def test_generate_random_and_lifted_color_load_no_dataclasses(tmp_path):
    # a lifted color table is built by the key engine of abr.paths
    loaded = _loaded(tmp_path, ["generate", "random", "--d", "3", "--n", "6", "-o", "R"],
                     ["color", "R", "-o", "C"])
    assert (tmp_path / "C").read_text().startswith("i0,i1,i2,i3,color\n")
    assert "abr.constructions" in loaded
    assert not loaded & {"abr.coloring", "dataclasses", "inspect"}


def test_generate_random_loads_no_coloring(tmp_path):
    # one key pass of abr.paths decides each redraw, with no search
    loaded = _loaded(tmp_path, ["generate", "random", "--d", "3", "--n", "6", "-o", "R"])
    assert "abr.paths" in loaded
    assert not loaded & {"abr.coloring", "abr.search"}


def test_integer_checks_load_no_coloring(tmp_path):
    # one-switch and lifted identities read the sequence's SignKernel alone;
    # only the planar identities and color's cross-check run Fraction oracles
    _lifted(tmp_path)
    _planar(tmp_path)
    for argv in (["check", "one-switch", "s.json", "--format", "json"],
                 ["check", "identities", "s.json", "--format", "json"]):
        loaded = _loaded(tmp_path, argv)
        assert "abr.linalg" in loaded and "abr.coloring" not in loaded, argv
    for argv in (["check", "identities", "p.json", "--d", "3", "--format", "json"],
                 ["color", "s.json", "-o", "C", "--cross-check"]):
        assert "abr.coloring" in _loaded(tmp_path, argv), argv


def test_lifted_search_loads_paths_and_no_constructions_or_dataclasses(tmp_path):
    # the monotone-path DP: no generator, no branch and bound over a table
    _lifted(tmp_path)
    loaded = _loaded(tmp_path, ["search", "s.json", "-o", "F"])
    assert json.loads((tmp_path / "F").read_text())["method"] == "monotone-path"
    assert "abr.paths" in loaded
    assert not loaded & {"abr.constructions", "dataclasses", "inspect"}


def test_every_public_name_resolves_in_its_home_module():
    # a name deleted from its module but left in abr._NAMES fails here
    import importlib

    homes = {name: module for module, names in abr._NAMES.items() for name in names}
    assert sorted(homes) == abr.__all__
    listed = dir(abr)
    for name, module in homes.items():
        home = importlib.import_module(f"abr.{module}")
        assert hasattr(home, name), f"abr.{module} has no {name}"
        assert getattr(abr, name) is getattr(home, name)
        assert name in listed
