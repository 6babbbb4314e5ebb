"""Each pass is computed at most once per `Program` object (`lang.derived`)."""

from collections import Counter
from pathlib import Path

import pytest

from luset import cli, codegen, infer, lang, normalize
from luset.diagnostics import ElaborationError
from luset.infer import infer_program
from luset.lang import elaborate
from luset.normalize import normalize_program
from luset.parser import parse_program

from conftest import CTR_SPDMTR_SRC

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
COMPUTE = [(lang, "_elaborate"), (normalize, "_normalize_program"),
           (infer, "_infer_program"), (codegen, "_build")]


@pytest.fixture
def computed(monkeypatch):
    """Counts computations by (pass, id of the program, other arguments)."""
    calls: Counter = Counter()
    alive = []  # no program is freed during the test, so no id is reused

    def counting(name, fn):
        def compute(prog, *args):
            calls[name, id(prog), args] += 1
            alive.append(prog)
            return fn(prog, *args)
        return compute

    for mod, name in COMPUTE:
        monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    return calls


def _per_pass(calls: Counter) -> Counter:
    total: Counter = Counter()
    for (name, _, _), n in calls.items():
        total[name] += n
    return total


def test_run_elaborates_source_and_normal_form_once(computed, capsys):
    assert cli.main(["run", str(SAMPLES / "ctr.lus"), "--node", "Ctr",
                     "--inputs", str(SAMPLES / "ctr_table.csv")]) == 0
    assert max(computed.values()) == 1
    per_pass = _per_pass(computed)
    assert per_pass["_elaborate"] == 2
    assert per_pass["_normalize_program"] == per_pass["_build"] == 1


def test_suite_computes_each_pass_once_per_program(computed, capsys):
    assert cli.main(["suite", "--programs", "3"]) == 0
    assert max(computed.values()) == 1
    assert set(_per_pass(computed)) == {name for _, name in COMPUTE}


def test_equal_programs_get_their_own_results():
    source = parse_program(CTR_SPDMTR_SRC)
    a = elaborate(source)
    b = elaborate(parse_program(CTR_SPDMTR_SRC))
    assert a == b and a is not b
    assert elaborate(source) is a and elaborate(a) is a
    assert infer_program(a) is infer_program(a)
    assert infer_program(b) is not infer_program(a)
    assert infer_program(b) == infer_program(a)
    assert normalize_program(source) is normalize_program(a)
    assert normalize_program(b) is not normalize_program(a)
    assert codegen.runner(b, "Ctr") is not codegen.runner(a, "Ctr")


def test_failed_elaboration_is_not_memoised(computed):
    prog = parse_program("node f(x: int) returns (y: bool); let y = x + 1; tel")
    for _ in range(2):
        with pytest.raises(ElaborationError):
            elaborate(prog)
        with pytest.raises(ElaborationError):
            normalize_program(prog)
    assert computed["_elaborate", id(prog), ()] == 4
    assert prog.memo == {}
