"""Recorded output digests of a fixed set of CLI commands.

Each command's exit code, stdout, stderr and -o artifact are hashed and
compared with digests recorded from an earlier release, so a refactor that
changes any byte a command emits fails here.  The inputs are generated by
the commands themselves or written below from fixed data.
"""

import hashlib
import json
import random
import subprocess
import sys
from itertools import combinations

CLI = [sys.executable, "-m", "abr.cli"]

# (argv with {dir} for the work directory, artifact name or None)
COMMANDS = [
    ("generate moment --d 3 --n 7 -o {dir}/moment.json", "moment.json"),
    ("generate random --d 2 --n 9 --seed 3 -o {dir}/random.json", "random.json"),
    ("generate cupcap --k 5 -o {dir}/cupcap.json", "cupcap.json"),
    ("generate em --m 3 -o {dir}/em.json", "em.json"),
    ("color {dir}/random.json -o {dir}/random.csv", "random.csv"),
    ("color {dir}/moment.json --format json --cross-check -o {dir}/moment-table.json",
     "moment-table.json"),
    ("color {dir}/cupcap.json --d 2", None),
    ("check monotone {dir}/random.csv", None),
    ("check transitive {dir}/random.csv --format json", None),
    ("check one-switch {dir}/random.json --format json", None),
    ("check monotone {dir}/cupcap.json --d 2 --format json", None),
    ("check transitive {dir}/em.json --d 3", None),
    ("check identities {dir}/cupcap.json --d 2", None),
    ("search {dir}/random.csv -o {dir}/search.json", "search.json"),
    ("search {dir}/cupcap.json --d 2 --k 5 -o {dir}/cupcap-search.json", "cupcap-search.json"),
    ("search {dir}/em.json --d 3 --budget 40", None),
    ("search {dir}/em.json --d 3 --budget 40 --best-effort -o {dir}/em-search.json",
     "em-search.json"),
    ("color {dir}/degenerate.json", None),
    ("check monotone {dir}/degenerate.json", None),
    ("check monotone {dir}/coin.csv", None),
    ("check transitive {dir}/coin.json --format json", None),
    ("search {dir}/coin.csv", None),
    ("search {dir}/coin.json --budget 25 --best-effort", None),
    ("generate em --m 3 --max-base 4 --budget 10", None),
    ("generate random --d 2 --n 40 --bits 2", None),
    ("generate moment --d 3 --n 4 -o {dir}/short.json", "short.json"),
    ("check one-switch {dir}/short.json", None),
    ("generate moment --n 0", None),
]

# (exit code, sha256 of stdout + NUL + stderr + NUL + artifact) per command
RECORDED = [
    (0, "910c3f8668ebabc55ea42d3c721a2667a11a0c05efec5c380e2bf3c236faab68"),
    (0, "f79d297f6f2872528a69287bd18c4825f14c3fc5152d4b45a9b82bfafda30866"),
    (0, "fc063e7caa92e361784a015fee007bd64378b388d1b173912f18bb6c0f6be0f3"),
    (0, "2a3c853b87ed21d7f72fb5f1bb6388a45f0b6807c9ecfa941b69912ffd36cf77"),
    (0, "976e0841cae785db0f6eec9326be4cb6d5c8fe1eee3e60beaf978766f3ce5e03"),
    (0, "b51a972abbc28d344452d21df04ecd1a9d170967075efdbfb1ecffa60f31c4f8"),
    (0, "19b595759e1f7068f4c5fef143981fb33315e999f301a8d85c24a57f11a5c2da"),
    (0, "5463f49f41c924926efe39d246a3eba8b462f160491bc22aec10541674860b6a"),
    (0, "dbb4b4d3ba636705ae646644b5e56fa9d24a8596315dad104cdb4c05067120b6"),
    (0, "581861156af41f63b32a17308d4eea8a1af21512ed69db8045b0a0929a2729bc"),
    (0, "781362460a754e2dcea090f4b9130e6fb2a97c338158cb5b28f46797cf04ceef"),
    (0, "aca93c3ea0e90e51b5f899bdc5e1006b25da40b0f6fe8ca3e0b519ed31b87d01"),
    (0, "06fb1ba95b476be0fd91e7208c49466fd122798b6e456a27489bc9f281f61a6b"),
    (0, "cfba543e21bcd5d87743bbbf5f1ef8768d9947f2b11a8998be69774f3ed85e8b"),
    (0, "98a12e2f5adef64b548c65d0bdd6e757f14e28e9649f163c16a746301a5fb945"),
    (0, "d3e05a5bde0ac6ff40b76eec5a83f9c1de5e995e660d6b102485d3976c1e8354"),
    (0, "40d35c3183c4e6da129353674a83ff51c58128725bfaabb14b200ac5b2ac5870"),
    (4, "9408ff6a3a761e8e59fdca9816783fb5b795967d336f381c0a6e03792e655dfc"),
    (4, "9408ff6a3a761e8e59fdca9816783fb5b795967d336f381c0a6e03792e655dfc"),
    (5, "7855cc17e0b7b62823b23794416b1d468ed01db0102c8e8ac1af63f6ca0641ee"),
    (5, "40bdf82a0b62031ee19f46d3fcdc17688673d3ee3ec9f9cefa0ce24201cb02cc"),
    (0, "0a2a22f5cbf1f38a5e7b78dc4fbb085d9de7d083bbd3c4a2c6af3c2d368d385a"),
    (0, "918f1e3729a9f9c36767e94aa71ca518d1a6cd20cb2e9dc40263c7ee2f5e1d15"),
    (2, "0ff83c4f3e13de2e07882631f8a3160b23950f5706f2d3c86d0458db3d6407ff"),
    (3, "ae94b85cc2705b08ea6e668b27ff52c5f686ce61dab35bea01a31e5e311fe018"),
    (0, "3212a95e5aabc0e06a80cb4905cd3a5d1c737f30af62e810b65a049533be42a9"),
    (2, "04dd4a059296c3390029ba5155b3b17366a356ead9731ca9dddcc1ecfae709d6"),
    (2, "7f358cea7d11823d26f4a3ad4ea82dcfce98b5d4856e015f3176f4c3eea6b7d0"),
]


def _write_inputs(workdir):
    # points 0, 1, 4, 5 of this lift lie on the surface h = z_2
    points = [[str(t), str(t * t), str(t ** 3 if t < 4 else t * t)] for t in range(8)]
    (workdir / "degenerate.json").write_text(
        json.dumps({"kind": "lifted", "dimension": 3, "points": points}))
    rng = random.Random(2024)
    tuples = list(combinations(range(9), 3))
    colors = "".join("+" if rng.getrandbits(1) else "-" for _ in tuples)
    rows = ["i0,i1,i2,color"] + [f"{a},{b},{c},{s}" for (a, b, c), s in zip(tuples, colors)]
    (workdir / "coin.csv").write_text("\n".join(rows) + "\n")
    (workdir / "coin.json").write_text(json.dumps({"n": 9, "r": 3, "colors": colors}))


def command_digests(workdir):
    _write_inputs(workdir)
    out = []
    for argv, artifact in COMMANDS:
        args = argv.format(dir=workdir).split()
        proc = subprocess.run(CLI + args, capture_output=True)
        blob = proc.stdout + b"\0" + proc.stderr + b"\0"
        if artifact is not None:
            blob += (workdir / artifact).read_bytes()
        out.append((proc.returncode, hashlib.sha256(blob).hexdigest()))
    return out


def test_cli_outputs_match_recorded_digests(tmp_path):
    got = command_digests(tmp_path)
    changed = [argv for (argv, _), a, b in zip(COMMANDS, got, RECORDED) if a != b]
    assert not changed, changed
    assert len(got) == len(RECORDED)
