"""The benchmark's tracer still finds every function and method it wraps.

``bench/tracing.py`` names its targets by module and attribute; a refactor
that moves one (say ``color`` off ``LazyDivdiffColors``, or a classmethod
off ``ColoringTable``) makes installing the wrappers fail.
"""

import importlib.util
from pathlib import Path

# abr loads its modules lazily, and Installed imports every module it
# targets; each one is loaded here so the bindings read before and after
# cover the same modules.
import abr
import abr.cli  # noqa: F401
import abr.coloring  # noqa: F401
import abr.constructions  # noqa: F401
import abr.errors  # noqa: F401
import abr.linalg  # noqa: F401
import abr.paths  # noqa: F401
import abr.sequences  # noqa: F401
import abr.tables  # noqa: F401
from abr import ColoringTable, LazyDivdiffColors

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("abr_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _abr_bindings(tracing):
    bindings = {}
    for mod in tracing._abr_modules():
        for key, value in vars(mod).items():
            bindings[(mod.__name__, key)] = value
    for cls in (ColoringTable, LazyDivdiffColors):
        for key, value in vars(cls).items():
            bindings[(cls.__qualname__, key)] = value
    return bindings


def test_lifted_and_planar_table_builds_are_distinct_functions():
    # Installed wraps every namespace that binds a target's function object:
    # were these one object, a lifted build would be booked under the planar span
    assert abr.coloring.color_table is not abr.paths.divdiff_color_table


def test_every_traced_name_resolves_and_is_restored():
    tracing = _load_tracing()
    before = _abr_bindings(tracing)
    with tracing.Installed(tracing.Tracer()) as installed:
        assert len(installed.saved) >= len(tracing.TARGETS)
        assert LazyDivdiffColors.color is not before[("LazyDivdiffColors", "color")]
    after = _abr_bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
