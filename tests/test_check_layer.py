"""Pins what the check layer reports over generated programs: `check_program`
under a forced-insecure and under a partial assignment, a sampled satisfying
assignment, and non-interference at a few trials, on the two-point lattice
and on random ones. A rewrite of how assignments are solved or calls are
checked must give the very same reports."""

import hashlib
import random
from collections import Counter
from functools import reduce

from luset.harness import (NIConfig, check_non_interference, gen_program,
                           sample_satisfying_assignment)
from luset.infer import check_program, flatten_assignment, infer_program
from luset.lang import elaborate
from luset.sectypes import Lattice

from conftest import gen_lattice

# recorded before `solve_interface` returned the violated constraints
CHECK_LAYER_DIGEST = "0b9d1d0faffc60e1c9d6fa598d6cef10bcd8d2ff4e920ba83aecd47b7c85dd9d"

TWO = Lattice.two_point()


def _check(prog, lat, entry):
    return check_program(prog, lat, [entry]).to_json()


def _ni(prog, node, lat, assignment, level, seed, force):
    cfg = NIConfig(node, lat, assignment, level, trials=3, ticks=8, seed=seed, force=force)
    return check_non_interference(prog, cfg).to_json()


def _outcomes():
    """Per generated node, the reports of the check layer."""
    rng = random.Random(23)
    for i in range(300):
        prog = elaborate(gen_program(rng))
        lat = TWO if i % 2 == 0 else gen_lattice(rng)
        top = reduce(lat.join, lat.elements)
        results = infer_program(prog)
        for node in prog.nodes:
            insecure = {"node": node.name, "base": lat.bottom,
                        "inputs": {d.name: top for d in node.inputs},
                        "outputs": {d.name: lat.bottom for d in node.outputs}}
            partial = {"node": node.name,
                       "inputs": {d.name: rng.choice(lat.elements) for d in node.inputs
                                  if rng.random() < 0.6}}
            level = rng.choice(lat.elements)
            yield _check(prog, lat, insecure)
            yield _check(prog, lat, partial)
            sampled = sample_satisfying_assignment(rng, results[node.name], lat)
            yield sampled
            for force in (False, True):
                yield _ni(prog, node.name, lat, flatten_assignment(insecure)[1], level, i, force)
            yield _ni(prog, node.name, lat, flatten_assignment(partial)[1], level, i, False)
            yield _ni(prog, node.name, lat, sampled, level, i, False)


def test_check_layer_results_are_pinned():
    h = hashlib.sha256()
    reports = insecure = solved = calls = 0
    verdicts: Counter = Counter()
    for got in _outcomes():
        h.update(repr(got).encode())
        reports += 1
        if "nodes" in got:
            for n in got["nodes"]:
                insecure += n["verdict"] == "insecure"
                solved += bool(n["solved"])
                calls += len(n["calls"])
        elif "check" in got:
            verdicts[got["verdict"], got["satisfied"]] += 1
    assert reports > 3000 and insecure > 300 and solved > 300 and calls > 50
    assert min(verdicts[v] for v in [("pass", True), ("fail", False),
                                     ("vacuously-skipped", False)]) > 200
    assert h.hexdigest() == CHECK_LAYER_DIGEST
