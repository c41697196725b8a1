"""Seeded mutation test of the CLI readers: a malformed input file never ends in a traceback.

The README's design, code, d2 and strong files and a places spec are built
once; each run replaces, deletes or duplicates one JSON leaf of one file and
runs one verb on it through ``cli.main`` under an alarm.  A run must exit 0,
exit 1 with one JSON line naming a ``SubdesignsError`` subclass, or exit 2.
"""

import copy
import json
import signal
import time

import numpy as np

from subdesigns import errors
from subdesigns.cli import main as cli_main

ALARM_S = 3
RUNS = 600
SEED = 2901
# Replacement leaves: codes out of range, huge and negative integers, floats and non-numbers.
VALUES = [0, 1, -1, 2, 7, 10**30, 2**31, 1e308, 1.5, 2.0, "x", "", None, True, [], {}, [1], [[0]]]
PLACES = {"q": 4, "m": 3, "members": [[[1], [0, 1]]], "p": [1, 1, 0, 1], "zeta": 2, "k": 2}
# file -> the verb forms run on it (FILE stands for the mutated file)
VERBS = {
    "design.json": [["profile", "FILE", "--s", "1"], ["weights", "FILE"], ["cutting", "FILE"], ["msrd", "FILE"],
                    ["classify", "FILE"], ["minimal", "FILE"], ["srg", "FILE"],
                    ["dual", "ordinary", "FILE", "--s", "1", "--A", "1"]],
    "code.json": [["minimal", "FILE", "--method", "pairs"], ["minimal", "FILE"]],
    "d2.json": [["expander", "FILE", "--max-dim", "1"]],
    "strong.json": [["strong", "verify", "FILE", "--s", "2"]],
    "places.json": [["strong", "places", "FILE"]],
}
ERRORS = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.SubdesignsError)}


def _leaves(obj, path=()):
    """Paths of every non-container value of a JSON object, in document order."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else None
    if items is None:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]


def _mutate(obj, rng: np.random.Generator) -> tuple[object, str]:
    """A copy of obj with one leaf replaced, deleted or duplicated, and what was done."""
    obj = copy.deepcopy(obj)
    leaves = _leaves(obj)
    path = leaves[int(rng.integers(len(leaves)))]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    action = ("replace", "delete", "duplicate")[int(rng.integers(3))]
    if action == "replace":  # half the time a small code, which often keeps the file readable
        parent[path[-1]] = int(rng.integers(3)) if rng.random() < 0.5 else VALUES[int(rng.integers(len(VALUES)))]
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, list):
        parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
    else:
        parent[str(path[-1]) + "_again"] = copy.deepcopy(parent[path[-1]])
    return obj, f"{action} {list(path)}"


def _on_alarm(signum, frame):
    raise TimeoutError(f"a run took more than {ALARM_S} s")


def test_mutated_files_end_in_a_typed_error_or_a_result(tmp_path, capsys):
    build = [
        ["construct", "pseudoregulus", "--q", "3", "--m", "2", "--r", "1", "--mus", "1,i+1", "-o", "design.json"],
        ["msrd", "design.json", "--emit-code", "code.json"],
        ["construct", "twisted", "--q", "3", "--m", "3", "--k", "2", "--alphas", "1,2", "--eta", "0", "-o", "d2.json"],
        ["strong", "cameron-liebler", "--kind", "point_pencil", "--n", "1", "--k", "3", "--q", "2", "-o", "strong.json"],
    ]
    start = time.perf_counter()
    for argv in build:
        assert cli_main([str(tmp_path / a) if a.endswith(".json") else a for a in argv]) == 0
    (tmp_path / "places.json").write_text(json.dumps(PLACES))
    assert cli_main(["strong", "places", str(tmp_path / "places.json")]) == 0
    capsys.readouterr()
    sources = {name: json.loads((tmp_path / name).read_text()) for name in VERBS}
    rng = np.random.default_rng(SEED)
    mutant = tmp_path / "mutant.json"
    seen = set()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for run in range(RUNS):
            name = list(VERBS)[run % len(VERBS)]
            obj, what = _mutate(sources[name], rng)
            mutant.write_text(json.dumps(obj))
            verb = VERBS[name][int(rng.integers(len(VERBS[name])))]
            argv = ["--cap", "100000", *(str(mutant) if a == "FILE" else a for a in verb)]
            signal.alarm(ALARM_S)
            try:
                rc = cli_main(argv)
            except SystemExit as exc:
                rc = exc.code
            finally:
                signal.alarm(0)
            out = capsys.readouterr().out
            context = f"{name}: {what}, {' '.join(verb)}"
            assert rc in (0, 1, 2), context
            if rc == 1:
                lines = out.splitlines()
                assert len(lines) == 1, context
                assert json.loads(lines[0])["error"] in ERRORS, f"{context}: {lines[0]}"
            seen.add(rc)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert seen >= {0, 1}  # the mutations reach both readers' refusals and valid inputs
    assert time.perf_counter() - start < 5
