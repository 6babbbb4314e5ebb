"""Pins the results of the tree interpreter (`streams.interpret_node`), the
reference every faster path is checked against, and of security inference
(`infer.infer_program`), so that a rewrite of either's internals is checked
to give the very same histories, signatures and diagnostics."""

import hashlib
import random
from pathlib import Path

import pytest

from luset.cli import main
from luset.diagnostics import InferError, LusetError
from luset.harness import gen_inputs, gen_program
from luset.infer import infer_program
from luset.lang import elaborate
from luset.normalize import normalize_program
from luset.parser import parse_program
from luset.streams import ABSENT, NodeInstance, interpret_node, show_value

from conftest import CNT_DN_SRC, CTR_SPDMTR_SRC, RE_TRIG_SRC, chain_src
from test_codegen import CALLS_SRC, DIVMOD_SRC, OFF_CLOCK_SRC, WHEN2_SRC

ROOT = Path(__file__).parent.parent
SAMPLES = sorted((ROOT / "samples").glob("*.lus"))

# recorded with the object-tree interpreter, before its expressions became
# closures, then re-recorded once an input off its sub-clock became an error:
# 11 runs went from a history to `input <x> off its clock`, and no other moved
INTERPRETER_DIGEST = "7efb03336a8c4ab7c656e51d043ad1fc608ac3f5590aec21a671cef250ed655c"

# recorded with the set-based local elimination of `infer.simplify`
INFERENCE_DIGEST = "d3b65a8366f3765ec33341e727fd9fbe68af474d52c7da5103520ea660a698af"

A = ABSENT
BIG = (1 << 63) - 1

OFF_CLOCK_INPUTS = [
    ({"c": [True, False], "x": [1, 2], "u": [1, A]}, None),
    ({"c": [True, True], "x": [1, A], "u": [1, 2]}, None),
    ({"c": [True, False], "x": [1, A], "u": [1, 3]}, None),
    ({"c": [True, A], "x": [1, A], "u": [1, A]}, [True, True]),
    ({"c": [True, False], "x": [1, A], "u": [1, A]}, [True, False]),
    ({"c": [True, 1], "x": [1, A], "u": [1, A]}, None),
    ({"c": [True, False], "x": [1, A], "u": [1, A]}, [True, 1]),
    ({"c": [True, False], "x": [True, A], "u": [1, A]}, None),
]

REFUSED_SRCS = [
    ("node f(x: int) returns (y: int); let y = y + x; tel", True),
    ("node f(x: int) returns (a, b: int); let (a, b) = (b, x); tel", True),
    ("node g(x: int) returns (y: int); let y = x; tel\n"
     "node f(x: int) returns (y: int); let y = x + g(y); tel", True),
    ("node f(x: int) returns (y: bool); let y = x; tel", False),
    ("node f(c: bool; x: int) returns (y: int); var k: int when c;\n"
     "let k = 3; y = merge c k (x when not c); tel", False),
    ("node f(c: bool; x: int) returns (y: int); var k: int when c; let k = 3; y = x; tel",
     False),
]


def _default_bs(node, inputs, n):
    if not node.inputs:
        return [True] * n
    return [any(inputs[d.name][t] is not ABSENT for d in node.inputs) for t in range(n)]


def _holes(rng, inputs, n):
    bs = [rng.random() < 0.7 for _ in range(n)]
    return {x: [v if b else A for v, b in zip(vs, bs)] for x, vs in inputs.items()}, bs


def _reused(instances, prog, node):
    """The instance of (prog, node) kept in `instances`, reset, or a new one
    kept there."""
    key = (id(prog), node.name)
    if key in instances:
        inst = instances[key][1]
        inst.reset()
        return inst
    inst = NodeInstance(prog, node)
    instances[key] = (prog, inst)  # holding the program keeps its id from being reused
    return inst


def _outcome(prog, name, inputs, n, bs=None, instances=None):
    """The typed history of one interpreter run, or its error's type, kind,
    tick, variable and message. With `instances`, the run is on the reused
    instance of (prog, node) there."""
    node = prog.node(name)
    bs = _default_bs(node, inputs, n) if bs is None else bs
    try:
        if instances is None:
            history = interpret_node(prog, node, inputs, n, bs)
        else:
            history = _reused(instances, prog, node).run(inputs, n, bs)
    except LusetError as exc:
        return ("error", type(exc).__name__, getattr(exc, "kind", None),
                getattr(exc, "tick", None), getattr(exc, "var", None), str(exc))
    return [(x, [(type(v).__name__, show_value(v)) for v in vs]) for x, vs in history.items()]


def _both_forms(prog):
    eprog = elaborate(prog)
    return [eprog, normalize_program(eprog)[0]]


def _cases():
    """(program, node, inputs, ticks, base clock) of every pinned run."""
    rng = random.Random(7)
    for prog in (p for src in (CTR_SPDMTR_SRC, RE_TRIG_SRC, CNT_DN_SRC)
                 for p in _both_forms(parse_program(src))):
        for node in prog.nodes:
            for _ in range(5):
                n = rng.randint(0, 30)
                ins = gen_inputs(rng, node, n)
                yield prog, node.name, ins, n, None
                holed, bs = _holes(rng, ins, n)
                yield prog, node.name, holed, n, bs
    yield elaborate(parse_program(CTR_SPDMTR_SRC)), "SpdMtr", \
        {"acc": [BIG, BIG, -BIG - 1, 1, -1, BIG]}, 6, None
    gen = random.Random(7)
    for _ in range(300):
        prog = gen_program(gen)
        for p in _both_forms(prog):
            for node in p.nodes:
                n = rng.randint(1, 24)
                ins = gen_inputs(rng, node, n)
                bs = None
                if rng.random() < 0.3:
                    ins, bs = _holes(rng, ins, n)
                if ins and rng.random() < 0.2:  # one value off its clock
                    x = rng.choice(sorted(ins))
                    t = rng.randrange(n)
                    ins[x][t] = 1 if ins[x][t] is A else A
                yield p, node.name, ins, n, bs
    dm = elaborate(parse_program(DIVMOD_SRC))
    yield dm, "dm", {"c": [False, True, False], "a": [4, 5, 6], "b": [2, 0, 3]}, 3, None
    yield dm, "dm", {"c": [True, False], "a": [BIG, -BIG - 1], "b": [-1, -1]}, 2, None
    delay = elaborate(parse_program(
        "node f(a: int; b: int) returns (y: int) let y = 0 fby a; tel"))
    for prog in (delay, normalize_program(delay)[0]):
        yield prog, "f", {"a": [1, A, 3], "b": [1, 2, 3]}, 3, [True] * 3
    for prog in _both_forms(parse_program(WHEN2_SRC)):
        yield prog, "w2", {"a": [True, False], "b": [True, A], "x": [1, 2], "d": [1, 0]}, 2, None
        yield prog, "w2", {"a": [True, False, True], "b": [False, A, True],
                           "x": [1, 2, 3], "d": [1, 2, -3]}, 3, None
    for prog in _both_forms(parse_program(CALLS_SRC)):
        yield prog, "top", {"k": [True, False, True], "x": [1, 2, 3], "y": [4, 5, 6]}, 3, None
        yield prog, "cnt", {}, 4, None
    off = elaborate(parse_program(OFF_CLOCK_SRC))
    for inputs, bs in OFF_CLOCK_INPUTS:
        yield off, "f", inputs, 2, bs
    for src, elaborated in REFUSED_SRCS:
        prog = parse_program(src)
        prog = elaborate(prog) if elaborated else prog
        ins = {x: vs for x, vs in (("c", [True, False, True]), ("x", [1, 2, 3]))
               if x in [d.name for d in prog.node("f").inputs]}
        yield prog, "f", ins, 3, None


def _interpreter_digest():
    h = hashlib.sha256()
    runs = errors = idle = 0
    for prog, name, inputs, n, bs in _cases():
        got = _outcome(prog, name, inputs, n, bs)
        h.update(repr((name, n, got)).encode())
        runs += 1
        errors += got[0] == "error"
        idle += bs is not None and not all(bs)
    return h.hexdigest(), runs, errors, idle


def test_interpreter_results_are_pinned():
    digest, runs, errors, idle = _interpreter_digest()
    assert runs > 1300 and errors > 100 and idle > 300
    assert digest == INTERPRETER_DIGEST


def test_reset_instance_gives_the_pinned_results():
    """One `NodeInstance` per (program, node), reset before each run after
    its first, gives the pinned histories and diagnostics. The run list is
    replayed twice through the same instances, so that each is reused. Then
    each run that raises partway through its prefix is followed, on its
    instance, by a run of the ticks before the error, which must give what a
    fresh instance gives."""
    cases = list(_cases())
    instances: dict = {}
    for _ in range(2):
        h = hashlib.sha256()
        for prog, name, inputs, n, bs in cases:
            h.update(repr((name, n, _outcome(prog, name, inputs, n, bs, instances))).encode())
        assert h.hexdigest() == INTERPRETER_DIGEST
    clean = 0
    for prog, name, inputs, n, bs in cases:
        got = _outcome(prog, name, inputs, n, bs, instances)
        if got[0] != "error" or not got[3]:
            continue
        t = got[3]
        prefix = ({x: vs[:t] for x, vs in inputs.items()}, t, bs and bs[:t])
        again = _outcome(prog, name, *prefix, instances)
        assert again == _outcome(prog, name, *prefix)
        clean += again[0] != "error"
    assert clean > 100


def test_long_flat_sum_preserves(tmp_path, capsys):
    """A flat sum near the elaboration cap runs on the interpreter's source
    side without a `RecursionError`: one frame per level of nesting."""
    src = tmp_path / "sum.lus"
    src.write_text("node f(x: int) returns (y: int); let y = " + " + ".join(["x"] * 480) + "; tel")
    assert main(["preserve", str(src), "--json", "--trials", "3"]) == 0
    assert '"verdict": "pass"' in capsys.readouterr().out


@pytest.mark.parametrize("sample", SAMPLES + [ROOT / "tests" / "data" / "tuple_tops.lus"],
                         ids=lambda p: p.stem)
def test_preserve_report_of_sample_golden(sample, capsys):
    """`luset preserve <sample> --json`, byte for byte; `tuple_tops.lus` adds
    tuple delays, merges and sub-clocked calls."""
    assert main(["preserve", str(sample), "--json"]) == 0
    golden = ROOT / "tests" / "data" / f"preserve_{sample.stem}.json"
    assert capsys.readouterr().out == golden.read_text()


# (node, sample, trace) of each `luset run` golden
RUNS = [("Ctr", "ctr", "samples/ctr_table.csv"),
        ("SpdMtr", "ctr", "tests/data/spdmtr_base.csv"),
        ("re_trig", "retrig", "tests/data/retrig_crlf.csv")]


@pytest.mark.parametrize("form", ["txt", "json"])
@pytest.mark.parametrize("node, sample, trace", RUNS, ids=[node for node, _, _ in RUNS])
def test_run_report_of_sample_golden(node, sample, trace, form, capsys):
    """`luset run <sample> --node <node> --inputs <trace> --locals`, as text
    and with `--json`, byte for byte."""
    argv = ["run", str(ROOT / "samples" / f"{sample}.lus"), "--node", node,
            "--inputs", str(ROOT / trace), "--locals"]
    assert main(argv + ["--json"] * (form == "json")) == 0
    assert capsys.readouterr().out == (ROOT / "tests" / "data" / f"run_{node}.{form}").read_text()


def test_run_golden_traces_keep_their_form():
    """SpdMtr's trace has a `base` column and absent cells; re_trig's has
    CRLF line ends only."""
    spdmtr = (ROOT / "tests" / "data" / "spdmtr_base.csv").read_text()
    assert spdmtr.startswith("base,") and ",_\n" in spdmtr
    retrig = (ROOT / "tests" / "data" / "retrig_crlf.csv").read_bytes()
    assert retrig.count(b"\r\n") == retrig.count(b"\n") > 1


# parsed but not elaborated, so that inference itself meets the fault
INFER_ERROR_SRCS = [
    "node f(x: int) returns (a, b: int); let (a, b) = x; tel",
    "node f(x: int) returns (y: int); let y = g(x); tel",
    "node f(x: int) returns (y: int); var t: int; let t = x; t = 0; y = t; tel",
]


def _inference_outcome(prog):
    """Per node, the signature, the full constraints and the call sites
    inference gives, or its error's kind and message."""
    try:
        results = infer_program(prog)
    except InferError as exc:
        return ("error", exc.kind, str(exc))
    return [(name, res.signature.display(), str(res.full_constraints),
             [(c.callee, c.eq_index, tuple(str(t) for t in c.arg_types), str(c.clock_type),
               c.result_vars) for c in res.calls])
            for name, res in results.items()]


def _inference_programs():
    for f in SAMPLES:
        yield elaborate(parse_program(f.read_text()))
    for k in (1, 17, 64, 200):
        yield elaborate(parse_program(chain_src(k)))
    rng = random.Random(11)
    for _ in range(300):
        yield elaborate(gen_program(rng))
    for src in INFER_ERROR_SRCS:
        yield parse_program(src)


def test_inference_results_are_pinned():
    h = hashlib.sha256()
    programs = errors = 0
    for prog in _inference_programs():
        got = _inference_outcome(prog)
        h.update(repr(got).encode())
        programs += 1
        errors += got[0] == "error"
    assert programs == 310 and errors == len(INFER_ERROR_SRCS)
    assert h.hexdigest() == INFERENCE_DIGEST


@pytest.mark.parametrize("sample", SAMPLES + [ROOT / "tests" / "data" / "tuple_tops.lus"],
                         ids=lambda p: p.stem)
def test_signature_report_of_sample_golden(sample, capsys):
    """`luset signature <sample> --json`, byte for byte."""
    assert main(["signature", str(sample), "--json"]) == 0
    golden = ROOT / "tests" / "data" / f"signature_{sample.stem}.json"
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("name,code,sample,assign", [
    ("leak", 1, "leak", "samples/leak_assign.json"),
    ("ctr", 0, "ctr", "samples/ctr_assign.json"),
    ("ctr_partial", 1, "ctr", "tests/data/ctr_partial_assign.json"),
], ids=["leak-1", "ctr-0", "ctr_partial-1"])
def test_check_report_of_sample_golden(name, code, sample, assign, capsys):
    """`luset check <sample> --json` with an assignment, byte for byte; exit
    code 1 is the `insecure` verdict on the leaks and on `Ctr` with a secret
    increment and a public output. The partial assignment has the least
    solution fill in the rest, and checks `SpdMtr`'s calls under it."""
    argv = ["check", str(ROOT / "samples" / f"{sample}.lus"), "--lattice", "two-point",
            "--assign", str(ROOT / assign), "--json"]
    assert main(argv) == code
    golden = ROOT / "tests" / "data" / f"check_{name}.json"
    assert capsys.readouterr().out == golden.read_text()
