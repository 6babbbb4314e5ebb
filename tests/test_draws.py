"""Pins the harness's random draws, so that a faster draw path is checked to
give the very same values and leave the generator in the very same state,
and checks the list-at-a-time history comparisons against a per-value scan."""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luset.cli import main
from luset.harness import _first_difference, _streams_equal, gen_inputs, gen_program
from luset.lang import ClockOn
from luset.parser import parse_program
from luset.streams import ABSENT, show_value

DATA = Path(__file__).parent / "data"

# recorded before the draw loop of `gen_inputs` was rewritten
GEN_INPUTS_DIGEST = "bc459c03b93c2073988d449c34ee62d30f22a2e2e7361076e20d05a140308254"


def _gen_inputs_stream_digest() -> tuple[str, int, int]:
    """SHA-256 over `gen_inputs` output for the nodes of 400 generated
    programs at 0, 1 and 24 ticks, fresh and with every other input shared,
    folding in one `random()` after each call to pin the generator state."""
    h = hashlib.sha256()
    clocked = shared_calls = 0
    for seed in range(400):
        rng = random.Random(seed)
        prog = gen_program(rng)
        for node in prog.nodes:
            clocked += any(isinstance(d.clock, ClockOn) for d in node.inputs)
            for ticks in (0, 1, 24):
                ins = gen_inputs(rng, node, ticks)
                h.update(repr([(x, [show_value(v) for v in vs])
                               for x, vs in ins.items()]).encode())
                h.update(repr(rng.random()).encode())
                shared = {d.name: ins[d.name] for d in node.inputs[::2]}
                shared_calls += bool(shared)
                ins2 = gen_inputs(rng, node, ticks, shared=shared)
                h.update(repr([(x, [show_value(v) for v in vs])
                               for x, vs in ins2.items()]).encode())
                h.update(repr(rng.random()).encode())
    return h.hexdigest(), clocked, shared_calls


def test_gen_inputs_draws_are_pinned():
    digest, clocked, shared_calls = _gen_inputs_stream_digest()
    assert clocked > 50 and shared_calls > 1000
    assert digest == GEN_INPUTS_DIGEST


MIXED_SRC = """
node M(b: bool; x: int; y: int when b; c: bool when not b) returns (o: int);
let
  o = x;
tel
"""


def test_int_draw_is_randint():
    """Every int sample is exactly `randint(-9, 9)` and every bool sample
    `random() < 0.5`, drawn input by input in order, and the generator is
    left where those calls leave it."""
    node = parse_program(MIXED_SRC).node("M")
    for seed in range(300):
        rng, ref = random.Random(seed), random.Random(seed)
        for ticks in (0, 1, 5, 17):
            ins = gen_inputs(rng, node, ticks)
            b = [ref.random() < 0.5 for _ in range(ticks)]
            x = [ref.randint(-9, 9) for _ in range(ticks)]
            y = [ref.randint(-9, 9) if bt else ABSENT for bt in b]
            c = [ref.random() < 0.5 if not bt else ABSENT for bt in b]
            assert ins == {"b": b, "x": x, "y": y, "c": c}
            assert [type(v) for v in ins["x"]] == [int] * ticks
            assert rng.random() == ref.random()


def test_suite_seed_0_golden(capsys):
    """`luset suite --seed 0 --json`, byte for byte."""
    assert main(["suite", "--seed", "0", "--json"]) == 0
    assert capsys.readouterr().out == (DATA / "suite_seed0.json").read_text()


@pytest.mark.parametrize("seed", [1, 2])
def test_suite_seed_golden(seed, capsys):
    """`luset suite --seed <seed> --json`, byte for byte."""
    assert main(["suite", "--seed", str(seed), "--json"]) == 0
    assert capsys.readouterr().out == (DATA / f"suite_seed{seed}.json").read_text()


# ---------------------------------------------------------------------------
# list-at-a-time comparisons against the per-value reference
# ---------------------------------------------------------------------------

def _ref_values_equal(a, b) -> bool:
    if (a is ABSENT) != (b is ABSENT):
        return False
    return a is ABSENT or (type(a) is type(b) and a == b)


def _ref_first_difference(h1, h2):
    if set(h1) != set(h2):
        return sorted(set(h1) ^ set(h2))[0], -1
    for x in sorted(h1):
        for t, (a, b) in enumerate(zip(h1[x], h2[x])):
            if not _ref_values_equal(a, b):
                return x, t
    return None


def _ref_streams_equal(xs, ys) -> bool:
    return len(xs) == len(ys) and all(_ref_values_equal(a, b) for a, b in zip(xs, ys))


_values = st.sampled_from([0, 1, -1, 2, True, False, ABSENT])
_streams = st.lists(_values, max_size=6)
_histories = st.dictionaries(st.sampled_from("abcd"), _streams, max_size=4)


@settings(derandomize=True, max_examples=200)
@given(_histories, _histories)
def test_first_difference_matches_reference(h1, h2):
    assert _first_difference(h1, h2) == _ref_first_difference(h1, h2)


@settings(derandomize=True, max_examples=150)
@given(_histories, st.data())
def test_first_difference_of_near_copies(h1, data):
    """Copies differing in one value (so also `True` against `1` and
    `False` against `0`) or in one stream's length."""
    h2 = {x: list(vs) for x, vs in h1.items()}
    if h2:
        x = data.draw(st.sampled_from(sorted(h2)))
        vs = h2[x]
        if vs and data.draw(st.booleans()):
            vs[data.draw(st.integers(0, len(vs) - 1))] = data.draw(_values)
        else:
            vs.append(data.draw(_values))
    assert _first_difference(h1, h2) == _ref_first_difference(h1, h2)
    assert _first_difference(h2, h1) == _ref_first_difference(h2, h1)


@settings(derandomize=True, max_examples=200)
@given(_streams, _streams)
def test_streams_equal_matches_reference(xs, ys):
    assert _streams_equal(xs, ys) == _ref_streams_equal(xs, ys)
    assert _streams_equal(xs, list(xs)) and _ref_streams_equal(xs, list(xs))


def test_bool_and_int_are_different_values():
    assert _first_difference({"a": [1, 0]}, {"a": [True, 0]}) == ("a", 0)
    assert _first_difference({"a": [1, 0]}, {"a": [1, False]}) == ("a", 1)
    assert not _streams_equal([True], [1]) and not _streams_equal([0], [False])
    assert _first_difference({"a": [1]}, {"a": [1, 2]}) is None
    assert _first_difference({"a": [1]}, {"b": [1]}) == ("a", -1)
