"""The four benchmark workloads: how each makes its inputs from the seed,
which abr commands it times, and how it checks their outputs.

Sizes are fixed per workload and only the values drawn from the seed
change.  Each run uses several seeded instances: the search cost of one
random instance varies by tens of percent from seed to seed, their sum
much less.  Sizes are smaller than the paper-scale runs so that one run
repeats its commands several times within its time budget on a 2-core
machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import exact

EXIT_OK = 0
EXIT_VIOLATION = 5


@dataclass(frozen=True)
class Step:
    """One timed abr command; ``metric`` names the end-to-end time it adds to."""

    name: str
    metric: str
    argv: tuple
    artifact: Path | None = None
    exit: int = EXIT_OK


@dataclass(frozen=True)
class Result:
    """What one abr command did: wall seconds, exit code, stdout, stderr, the
    bytes of its -o artifact (None when it wrote none) and, when measured,
    the seconds spent inside ``main``."""

    seconds: float
    exit: int
    stdout: bytes
    stderr: bytes
    artifact: bytes | None
    main_seconds: float | None = None


def _json(result):
    return json.loads(result.stdout)


def _points(data):
    return [tuple(Fraction(x) for x in pt) for pt in json.loads(data)["points"]]


def _write_points(path, obj, points):
    obj = dict(obj, points=points)
    path.write_bytes((json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode())


def check_exit(name, want, result):
    if result.exit != want:
        tail = result.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return [f"{name}: exit {result.exit}, expected {want} {tail}"]
    return []


def check_verdict(name, result, kind, n, r, want_witness):
    """A --format json monotone/transitive verdict against the expected
    lexicographically least witness (None for a table with the property)."""
    got = _json(result)
    want = {"check": kind, "ok": want_witness is None,
            "witness": None if want_witness is None else list(want_witness), "n": n, "r": r}
    return [] if got == want else [f"{name}: reported {got}, expected {want}"]


def check_search(name, result, n, r, colors):
    """A search artifact: exhaustive, a monochromatic witness of the reported
    color and size, and the size the window-chain bound gives (exact when the
    coloring is transitive, an upper bound otherwise)."""
    got = json.loads(result.artifact)
    failures = []
    color = {"+": True, "-": False}.get(got["color"])
    if got["exhaustive"] is not True:
        failures.append(f"{name}: search not exhaustive")
    if got["size"] != len(got["witness"]) or not exact.is_monochromatic(
            got["witness"], r, colors, color):
        failures.append(f"{name}: witness {got['witness']} is not a monochromatic "
                        f"{got['color']} set of size {got['size']}")
    bound = exact.longest_window_chain(n, r, colors)
    transitive = exact.transitivity_violation(n, r, colors) is None
    if got["size"] > bound or (transitive and got["size"] != bound):
        failures.append(f"{name}: size {got['size']}, longest window chain {bound}")
    return failures


class Workload:
    """Base: a work directory, a seed, and the abr steps of one pass.

    ``setup(run)`` makes the inputs (``run`` executes one abr command line
    and returns its Result) and returns a list of failure messages.
    ``verify(results)`` checks one pass's {step name: Result} and returns
    failure messages; it runs outside the timed region.
    """

    name = ""
    why = ""
    setup_repeats = 3

    def __init__(self, work, seed):
        self.work = Path(work)
        self.seed = seed
        self.rng = exact.seeded_rng(seed, self.name)

    def path(self, name):
        return self.work / name

    def decided_tuples(self):
        """Colors the ``color`` step has to decide (0: the workload has none)."""
        return 0

    def run_setup_step(self, run, name, argv, artifact):
        result = run(argv, artifact)
        return result, check_exit(name, EXIT_OK, result)


class LiftedD3(Workload):
    name = "lifted-d3"
    why = ("random d=3 lifted instances: the only workload where linalg determinants "
           "do most of the work and the only one that writes large tables")
    N = 16
    INSTANCES = 4
    PREFIX = 12

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.abr_seeds = [self.rng.randrange(1 << 31) for _ in range(self.INSTANCES)]
        self.prefix = self.path("prefix.json")

    def setup(self, run):
        self.generated, failures = [], []
        for k, abr_seed in enumerate(self.abr_seeds):
            seq = self.path(f"lifted-{k}.json")
            result, more = self.run_setup_step(
                run, f"generate random #{k}",
                ["generate", "random", "--d", "3", "--n", str(self.N), "--seed",
                 str(abr_seed), "--bits", "16", "-o", str(seq)], seq)
            self.generated.append(result)
            failures += more
        if not failures:
            obj = json.loads(self.generated[0].artifact)
            _write_points(self.prefix, obj, obj["points"][:self.PREFIX])
        return failures

    def steps(self):
        steps = []
        for k in range(self.INSTANCES):
            seq, table, search = (self.path(f"{stem}-{k}.{ext}") for stem, ext in
                                  (("lifted", "json"), ("table", "csv"), ("search", "json")))
            steps += [
                Step(f"color #{k}", "color_s", ("color", str(seq), "-o", str(table)), table),
                Step(f"check monotone #{k}", "check_s",
                     ("check", "monotone", str(table), "--format", "json")),
                Step(f"search #{k}", "search_s", ("search", str(table), "-o", str(search)),
                     search),
            ]
        return steps + [Step("check one-switch", "one_switch_s",
                             ("check", "one-switch", str(self.prefix), "--format", "json"))]

    def verify(self, results):
        failures, r = [], 4
        for k, generated in enumerate(self.generated):
            points = _points(generated.artifact)
            if len(points) != self.N or any(len(p) != 3 for p in points):
                failures.append(f"generate random #{k}: expected {self.N} points in R^3")
                continue
            ts = [p[0] for p in points]
            if any(p[1] != p[0] ** 2 for p in points) or ts != sorted(set(ts)):
                failures.append(f"generate random #{k}: projections are not on the moment "
                                "curve in order")
            colors = exact.lifted_colors(points)
            color = results[f"color #{k}"]
            if exact.parse_table_csv(color.artifact.decode()) != (self.N, r, colors):
                failures.append(f"color #{k}: table differs from the benchmark's own "
                                "determinants")
            positive = sum(colors.values())
            summary = (f"n={self.N} d=3 tuples={len(colors)} positive={positive} "
                       f"negative={len(colors) - positive}")
            if color.stdout.decode().strip() != summary:
                failures.append(f"color #{k}: summary {color.stdout!r}, expected {summary!r}")
            failures += check_verdict(f"check monotone #{k}", results[f"check monotone #{k}"],
                                      "monotone", self.N, r,
                                      exact.monotonicity_violation(self.N, r, colors))
            failures += check_search(f"search #{k}", results[f"search #{k}"], self.N, r, colors)
            if k == 0:
                got = _json(results["check one-switch"])
                prefix = {t: c for t, c in colors.items() if t[-1] < self.PREFIX}
                want = {"check": "one-switch", "ok": True,
                        "subtuples": comb(self.PREFIX, r + 1),
                        "max_switch_count": exact.max_switches(self.PREFIX, r, prefix)}
                if got != want:
                    failures.append(f"check one-switch: reported {got}, expected {want}")
        return failures

    def decided_tuples(self):
        return self.INSTANCES * comb(self.N, 4)


class EmPrefix(Workload):
    name = "em-prefix"
    why = ("windows of the depth-4 cluster instance: planar divided differences on "
           "~200-bit rationals with no determinant, rebuilt by each command")
    WINDOW = 16
    INSTANCES = 4

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.em3 = self.path("em3.json")
        self.em4 = self.path("em4.json")
        self.starts = [self.rng.randrange(256 - self.WINDOW + 1)
                       for _ in range(self.INSTANCES)]

    def setup(self, run):
        self.em3_result, failures = self.run_setup_step(
            run, "generate em --m 3", ["generate", "em", "--m", "3", "-o", str(self.em3)],
            self.em3)
        self.em4_result, more = self.run_setup_step(
            run, "generate em --m 4",
            ["generate", "em", "--m", "4", "--no-verify", "-o", str(self.em4)], self.em4)
        failures += more
        if not failures:
            obj = json.loads(self.em4_result.artifact)
            for k, start in enumerate(self.starts):
                _write_points(self.path(f"window-{k}.json"), obj,
                              obj["points"][start:start + self.WINDOW])
        return failures

    def steps(self):
        steps = []
        for k in range(self.INSTANCES):
            window, search = self.path(f"window-{k}.json"), self.path(f"search-{k}.json")
            steps += [
                Step(f"search #{k}", "search_s",
                     ("search", str(window), "--d", "3", "-o", str(search)), search),
                Step(f"check monotone #{k}", "check_s",
                     ("check", "monotone", str(window), "--d", "3", "--format", "json")),
            ]
        return steps

    def verify(self, results):
        failures = []
        report = _json(self.em3_result)
        em3 = _points(self.em3_result.artifact)
        em3_colors = exact.divdiff_colors(em3, 3)
        longest = exact.longest_window_chain(len(em3), 4, em3_colors)
        if exact.transitivity_violation(len(em3), 4, em3_colors) is not None:
            failures.append("generate em --m 3: instance is not transitive")
        if not (report["exhaustive"] is True and report["n"] == 16
                and report["max_monotone"] == longest <= 6):
            failures.append(f"generate em --m 3: report {report}, longest chain {longest}")
        em4 = _points(self.em4_result.artifact)
        if len(em4) != 256 or [t for t, _ in em4] != sorted({t for t, _ in em4}):
            return failures + ["generate em --m 4: expected 256 points with increasing t"]
        for k, start in enumerate(self.starts):
            colors = exact.divdiff_colors(em4[start:start + self.WINDOW], 3)
            failures += check_search(f"search #{k}", results[f"search #{k}"],
                                     self.WINDOW, 4, colors)
            failures += check_verdict(f"check monotone #{k}", results[f"check monotone #{k}"],
                                      "monotone", self.WINDOW, 4,
                                      exact.monotonicity_violation(self.WINDOW, 4, colors))
        return failures


class TableTransitive(Workload):
    name = "table-transitive"
    why = ("cup/cap table CSVs written by the benchmark: only the tables layer runs, "
           "on the transitive case a monotone-path search targets")
    N = 22
    R = 3
    INSTANCES = 8
    setup_repeats = 15

    def make_colors(self, rng):
        return exact.cupcap_colors(self.N, rng)

    def setup(self, run):
        rng = exact.seeded_rng(self.seed, self.name)
        self.colors = [self.make_colors(rng) for _ in range(self.INSTANCES)]
        for k, colors in enumerate(self.colors):
            self.path(f"table-{k}.csv").write_text(exact.table_csv(self.N, self.R, colors))
        return []

    def table_steps(self, k):
        table, search = self.path(f"table-{k}.csv"), self.path(f"search-{k}.json")
        return [
            Step(f"check transitive #{k}", "check_s",
                 ("check", "transitive", str(table), "--format", "json")),
            Step(f"check monotone #{k}", "check_s",
                 ("check", "monotone", str(table), "--format", "json")),
            Step(f"search #{k}", "search_s", ("search", str(table), "-o", str(search)), search),
        ]

    def steps(self):
        return [step for k in range(self.INSTANCES) for step in self.table_steps(k)]

    def verify(self, results):
        n, r, failures = self.N, self.R, []
        for k, colors in enumerate(self.colors):
            failures += check_verdict(f"check transitive #{k}", results[f"check transitive #{k}"],
                                      "transitive", n, r,
                                      exact.transitivity_violation(n, r, colors))
            if f"check monotone #{k}" in results:
                failures += check_verdict(f"check monotone #{k}",
                                          results[f"check monotone #{k}"], "monotone", n, r,
                                          exact.monotonicity_violation(n, r, colors))
            failures += check_search(f"search #{k}", results[f"search #{k}"], n, r, colors)
        return failures


class TablePerturbed(TableTransitive):
    name = "table-perturbed"
    why = ("the cup/cap tables with seeded cells flipped so they are not transitive: "
           "the search fallback a transitive-only method must not slow")
    FLIPS = 3

    def make_colors(self, rng):
        return exact.perturbed_colors(self.N, rng, self.FLIPS)

    def table_steps(self, k):
        check, _, search = super().table_steps(k)
        return [Step(check.name, check.metric, check.argv, exit=EXIT_VIOLATION), search]

    def verify(self, results):
        failures = super().verify(results)
        for k, colors in enumerate(self.colors):
            witness = _json(results[f"check transitive #{k}"])["witness"]
            if not (witness and exact.is_transitivity_violation(tuple(witness), colors)):
                failures.append(f"check transitive #{k}: witness {witness} is not a violation")
        return failures


WORKLOADS = {w.name: w for w in (LiftedD3, EmPrefix, TableTransitive, TablePerturbed)}
