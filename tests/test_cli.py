import json
import time
from pathlib import Path

import jsonschema
import pytest

from luset.cli import _checks_exit_code, main
from luset.harness import CheckReport
from luset.parser import parse_program

from conftest import CNT_DN_SRC, CTR_SPDMTR_SRC, LEAK_ITE_SRC, RE_TRIG_SRC
from lattice_files import FILES as LATTICE_FILES

DATA = Path(__file__).resolve().parent / "data"

CTR_CSV = """init,incr,rst
1,1,false
2,2,false
1,2,false
1,3,false
0,3,true
2,1,false
4,2,true
"""

NI_REPORT_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["check", "verdict", "trials", "node", "seed"],
        "properties": {
            "check": {"const": "non-interference"},
            "verdict": {"enum": ["pass", "fail", "inconclusive", "vacuously-skipped"]},
            "trials": {"type": "integer"},
            "node": {"type": "string"},
            "seed": {"type": "integer"},
            "level": {"type": "string"},
            "counterexample": {
                "type": "object",
                "required": ["variable", "tick", "run1", "run2"],
            },
        },
    },
}

CHECK_REPORT_SCHEMA = {
    "type": "object",
    "required": ["lattice", "verdict", "nodes"],
    "properties": {
        "verdict": {"enum": ["secure", "insecure"]},
        "nodes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["node", "verdict", "assignment", "violated", "calls"],
            },
        },
    },
}


@pytest.fixture
def files(tmp_path):
    (tmp_path / "ctr.lus").write_text(CTR_SPDMTR_SRC)
    (tmp_path / "retrig.lus").write_text(RE_TRIG_SRC)
    (tmp_path / "leak.lus").write_text(LEAK_ITE_SRC)
    (tmp_path / "table.csv").write_text(CTR_CSV)
    (tmp_path / "ctr_low.json").write_text(json.dumps(
        {"node": "Ctr", "base": "L",
         "inputs": {"init": "L", "incr": "L", "rst": "L"}, "outputs": {"n": "L"}}))
    (tmp_path / "leak.json").write_text(json.dumps(
        {"node": "Leak", "base": "L", "inputs": {"b": "H"}, "outputs": {"c": "L"}}))
    return tmp_path


def test_signature_ctr(files, capsys):
    assert main(["signature", str(files / "ctr.lus"), "--node", "Ctr"]) == 0
    out = capsys.readouterr().out
    assert "Ctr(α1, α2, α3) ⇒γ β {| γ⊔α1⊔α2⊔α3 ⊑ β |}" in out


def test_signature_ascii(files, capsys):
    assert main(["signature", str(files / "ctr.lus"), "--node", "Ctr", "--ascii"]) == 0
    out = capsys.readouterr().out
    assert "g lub a1 lub a2 lub a3 <= b" in out


def test_run_prints_output_row(files, capsys):
    code = main(["run", str(files / "ctr.lus"), "--node", "Ctr",
                 "--inputs", str(files / "table.csv"), "--ticks", "7"])
    assert code == 0
    assert "n,1,3,5,8,0,1,4" in capsys.readouterr().out


def test_run_locals_flag(files, capsys):
    main(["run", str(files / "ctr.lus"), "--node", "Ctr",
          "--inputs", str(files / "table.csv"), "--locals"])
    out = capsys.readouterr().out
    assert "pre_n,0,1,3,5,8,0,1" in out
    assert "fst,true,false,false,false,false,false,false" in out


def test_run_input_off_its_sub_clock_exit_two(files, capsys):
    """`y` is present at tick 1, where `b` is false: the check of the
    inputs at the node's interface refuses the run."""
    (files / "m.lus").write_text(
        "node M(b: bool; y: int when b) returns (o: int); let o = 1; tel")
    (files / "m.csv").write_text("b,y\ntrue,1\nfalse,5\ntrue,_\n")
    assert main(["run", str(files / "m.lus"), "--node", "M",
                 "--inputs", str(files / "m.csv")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "clocked-value-mismatch at tick 1 (y): input y off its clock\n"


def test_check_secure_exit_zero(files, capsys):
    code = main(["check", str(files / "ctr.lus"), "--lattice", "two-point",
                 "--assign", str(files / "ctr_low.json")])
    assert code == 0
    assert "Ctr: Secure" in capsys.readouterr().out


def test_check_insecure_exit_one(files, capsys):
    code = main(["check", str(files / "leak.lus"), "--lattice", "two-point",
                 "--assign", str(files / "leak.json")])
    assert code == 1
    out = capsys.readouterr().out
    assert "Leak: Insecure" in out and "violated" in out


def test_check_text_lists_calls(files, capsys):
    (files / "spd.json").write_text(json.dumps(
        {"node": "SpdMtr", "base": "L", "inputs": {"acc": "L"}}))
    code = main(["check", str(files / "ctr.lus"), "--lattice", "two-point",
                 "--assign", str(files / "spd.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "SpdMtr: Secure" in out
    assert "call to Ctr (eq 0): secure" in out and "call to Ctr (eq 1): secure" in out


@pytest.mark.parametrize("lattice, assign", [("chain800", "chain"), ("powerset1024", "powerset")])
def test_check_on_large_lattices_golden(tmp_path, capsys, lattice, assign):
    # the lattice file's name is the report's "lattice"; Ctr's output is set
    # below its increment, so Ctr is insecure
    path = tmp_path / f"{lattice}.json"
    path.write_text(json.dumps(LATTICE_FILES[path.name]), encoding="utf-8")
    start = time.perf_counter()
    code = main(["check", str(DATA.parent.parent / "samples" / "ctr.lus"), "--lattice", str(path),
                 "--assign", str(DATA / f"ctr_{assign}_assign.json"), "--json"])
    assert time.perf_counter() - start < 2
    assert code == 1
    assert capsys.readouterr().out == (DATA / f"check_ctr_{lattice}.json").read_text()


# parses (the parser loops over a flat sum) but nests 3000 deep for the later passes
FLAT_SUM_SRC = "node f(x: int) returns (y: int); let y = " + " + ".join(["x"] * 3000) + "; tel"


@pytest.mark.parametrize("argv", [
    ["ni", "leak.lus", "--node", "Nope", "--lattice", "two-point", "--assign", "leak.json"],
    ["preserve", "leak.lus", "--node", "Nope"],
    ["check", "leak.lus", "--lattice", "powerset:x", "--assign", "leak.json"],
    ["check", "leak.lus", "--lattice", "two-point", "--assign", "entry.json"],
    ["ni", "leak.lus", "--node", "Leak", "--lattice", "two-point", "--assign", "entry.json"],
    ["check", "leak.lus", "--lattice", "two-point", "--assign", "inputs.json"],
    ["ni", "leak.lus", "--node", "Leak", "--lattice", "two-point", "--assign", "empty.json"],
    ["ni", "leak.lus", "--node", "Leak", "--lattice", "two-point", "--assign", "leak.json",
     "--trials", "-5"],
    ["preserve", "leak.lus", "--trials", "-2", "--ticks", "-4"],
    ["run", "ctr.lus", "--node", "Ctr", "--inputs", "table.csv", "--ticks", "-3"],
    ["suite", "--programs", "0"],
    ["suite", "--samples", "-1"],
    ["run", "ctr.lus", "--node", "Ctr", "--inputs", "dup.csv"],
    ["signature", "deep.lus"],
    ["signature", "flat.lus"],
    ["normalize", "flat.lus"],
    ["run", "flat.lus", "--node", "f", "--inputs", "flat.csv"],
    ["signature", "big.lus"],
    ["run", "echo.lus", "--node", "f", "--inputs", "big.csv"],
    ["run", "echo.lus", "--node", "f", "--inputs", "long.csv"],
    ["signature", "latin1.lus"],
    ["run", "echo.lus", "--node", "f", "--inputs", "latin1.csv"],
    ["check", "leak.lus", "--lattice", "latin1.json", "--assign", "leak.json"],
    ["check", "leak.lus", "--lattice", "two-point", "--assign", "latin1.json"],
    ["run", "ctr.lus", "--node", "SpdMtr", "--inputs", "dir.csv"],
    ["run", "echo.lus", "--node", "f", "--inputs", "wide.csv"],
    ["ni", "leak.lus", "--node", "Leak", "--lattice", "two-point", "--assign", "leak.json",
     "--level", "Z"],
    ["signature", "sup.lus"],
    ["signature", "sup_after_digit.lus"],
    ["check", "leak.lus", "--lattice", "cover_not_pair.json", "--assign", "leak.json"],
    ["check", "leak.lus", "--lattice", "element_not_string.json", "--assign", "leak.json"],
    ["check", "leak.lus", "--lattice", "cover_member_not_string.json", "--assign", "leak.json"],
    ["check", "leak.lus", "--lattice", "elements_int.json", "--assign", "leak.json"],
    ["check", "leak.lus", "--lattice", "elements_str.json", "--assign", "leak.json"],
    ["check", "leak.lus", "--lattice", "two-point", "--assign", "class_list.json"],
    ["ni", "leak.lus", "--node", "Leak", "--lattice", "two-point", "--assign", "class_list.json"],
    ["check", "leak.lus", "--lattice", "two-point", "--assign", "input_class_list.json"],
    ["ni", "leak.lus", "--node", "Leak", "--lattice", "two-point", "--assign",
     "input_class_list.json"],
    ["check", "leak.lus", "--lattice", "two-point", "--assign", "twice.json"],
    ["ni", "leak.lus", "--node", "Leak", "--lattice", "two-point", "--assign", "twice.json"],
    ["check", "leak.lus", "--lattice", "two-point", "--assign", "base_in_section.json"],
    ["ni", "leak.lus", "--node", "Leak", "--lattice", "two-point", "--assign",
     "base_in_section.json"],
    ["check", "leak.lus", "--lattice", "two-point", "--assign", "wrong_section.json"],
    ["ni", "leak.lus", "--node", "Leak", "--lattice", "two-point", "--assign",
     "wrong_section.json"],
    ["ni", "leak.lus", "--node", "Leak", "--lattice", "two-point", "--assign", "other_node.json"],
], ids=["ni-unknown-node", "preserve-unknown-node", "bad-lattice-size",
        "check-entry-not-object", "ni-entry-not-object", "check-inputs-not-object",
        "ni-empty-assignment", "ni-negative-trials", "preserve-negative-counts",
        "run-negative-ticks", "suite-zero-programs", "suite-negative-samples",
        "run-duplicate-column", "deep-nesting", "deep-flat-sum-signature",
        "deep-flat-sum-normalize", "deep-flat-sum-run", "literal-out-of-range",
        "trace-cell-out-of-range", "trace-cell-too-long", "program-not-utf8",
        "trace-not-utf8", "lattice-not-utf8", "assignment-not-utf8", "trace-is-a-directory",
        "trace-field-over-csv-limit", "ni-unknown-level", "non-decimal-digit",
        "non-decimal-digit-after-digit", "lattice-cover-not-a-pair",
        "lattice-element-not-a-string", "lattice-cover-member-not-a-string",
        "lattice-elements-not-a-list", "lattice-elements-a-string", "check-base-class-a-list",
        "ni-base-class-a-list", "check-input-class-a-list", "ni-input-class-a-list",
        "check-name-in-two-sections", "ni-name-in-two-sections", "check-base-in-a-section",
        "ni-base-in-a-section", "check-name-in-wrong-section", "ni-name-in-wrong-section",
        "ni-no-entry-for-node"])
def test_malformed_input_exit_two(files, capsys, argv):
    (files / "entry.json").write_text("[1]")
    (files / "inputs.json").write_text(json.dumps({"node": "Leak", "inputs": ["b"]}))
    (files / "empty.json").write_text("[]")
    (files / "dup.csv").write_text("init,init,incr,rst\n1,2,3,false\n")
    (files / "deep.lus").write_text(
        "node f(x: int) returns (y: int); let y = " + "(" * 3000 + "x" + ")" * 3000 + "; tel")
    (files / "flat.lus").write_text(FLAT_SUM_SRC)
    (files / "flat.csv").write_text("x\n1\n2\n")
    (files / "big.lus").write_text(
        "node f(x: int) returns (y: int); let y = x + 9223372036854775808; tel")
    (files / "echo.lus").write_text("node f(x: int) returns (y: int); let y = x; tel")
    (files / "big.csv").write_text("x\n1\n99999999999999999999\n")
    (files / "long.csv").write_text("x\n" + "9" * 5000 + "\n")
    (files / "latin1.lus").write_bytes(b"node f(x: int) returns (y: int); let y = x; tel -- \xff")
    (files / "latin1.csv").write_bytes(b"x\n1\n\xff\n")
    (files / "latin1.json").write_bytes(b'{"node": "Leak", "base": "\xff"}')
    (files / "dir.csv").mkdir()
    (files / "wide.csv").write_text("x\n" + "9" * 140_000 + "\n")
    (files / "sup.lus").write_text("node f(x: int) returns (y: int); let y = ²; tel")
    (files / "sup_after_digit.lus").write_text("node f(x: int) returns (y: int); let y = 1²; tel")
    lattices = {"cover_not_pair": {"covers": [["L"]]},
                "element_not_string": {"elements": ["L", ["H"]], "covers": []},
                "cover_member_not_string": {"covers": [["L", ["H"]]]},
                "elements_int": {"elements": 3},
                "elements_str": {"elements": "LH"}}
    for stem, fields in lattices.items():
        (files / f"{stem}.json").write_text(json.dumps(
            {"elements": ["L", "H"], "bottom": "L", "covers": [["L", "H"]], **fields}))
    (files / "class_list.json").write_text(json.dumps({"node": "Leak", "base": ["L"]}))
    (files / "input_class_list.json").write_text(json.dumps({"node": "Leak", "inputs": {"b": ["H"]}}))
    (files / "twice.json").write_text(json.dumps(
        {"node": "Leak", "inputs": {"b": "L"}, "outputs": {"b": "H", "c": "L"}}))
    (files / "base_in_section.json").write_text(json.dumps(
        {"node": "Leak", "inputs": {"b": "L"}, "outputs": {"c": "L", "base": "H"}}))
    (files / "wrong_section.json").write_text(json.dumps(
        {"node": "Leak", "inputs": {"c": "L"}, "outputs": {"b": "L"}}))
    (files / "other_node.json").write_text(json.dumps({"node": "Other", "base": "H"}))
    argv = [str(files / a) if a.endswith((".lus", ".json", ".csv")) else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err
    # one short diagnostic line, after argparse's usage lines for usage errors
    assert err.startswith("usage:") or err.count("\n") == 1, err[:300]
    assert len(err.splitlines()[-1]) < 300, err[:300]


@pytest.mark.parametrize("bad", ["program", "lattice", "assign"])
def test_undecodable_input_is_named(files, capsys, bad):
    paths = {"program": files / "leak.lus", "lattice": files / "lattice.json",
             "assign": files / "leak.json"}
    paths["lattice"].write_text(json.dumps(
        {"elements": ["L", "H"], "bottom": "L", "covers": [["L", "H"]]}))
    paths[bad].write_bytes(paths[bad].read_bytes() + b"\xff")
    assert main(["check", str(paths["program"]), "--lattice", str(paths["lattice"]),
                 "--assign", str(paths["assign"])]) == 2
    assert capsys.readouterr().err == f"{paths[bad]}: not UTF-8 text (invalid start byte)\n"


def test_deep_flat_sum_is_one_line_diagnostic(files, capsys):
    flat = files / "flat.lus"
    flat.write_text(FLAT_SUM_SRC)
    assert main(["signature", str(flat)]) == 2
    assert capsys.readouterr().err == f"{flat}:1:38: nesting-too-deep: expression nested too deeply\n"


def test_nested_merge_clock_error_reported_once(files, capsys):
    """Each of 50 nested `merge c (...) (x when not c)` finds the same clock
    error in `x`; it is printed once."""
    body = "x"
    for _ in range(50):
        body = f"merge c ({body}) (x when not c)"
    deep = files / "merge50.lus"
    deep.write_text(f"node f(x: int; c: bool) returns (y: int); let y = {body}; tel")
    assert main(["signature", str(deep)]) == 2
    assert capsys.readouterr().err == \
        "f#eq0: clock-mismatch: expected clock 'base', found 'base on c'\n"


def test_elaboration_diagnostics_golden(tmp_path, capsys):
    """`luset signature` on each one-line program of `elab_programs.txt`
    (label, tab, source) exits 2 with one stderr line, pinned with its label
    in `elab_errors.txt`: every kind of diagnostic found after parsing, and
    structural faults printed alone when typing faults come with them."""
    got = []
    for row in (DATA / "elab_programs.txt").read_text().splitlines():
        label, src = row.split("\t")
        path = tmp_path / f"{label}.lus"
        path.write_text(src + "\n")
        assert main(["signature", str(path)]) == 2, label
        got.append(f"{label}: {capsys.readouterr().err}")
    assert "".join(got) == (DATA / "elab_errors.txt").read_text()


def test_faulty_traces_give_the_pinned_lines(tmp_path, capsys):
    """`luset run` on each faulty trace of `run_faults/traces.txt` (label,
    program, node, and the CSV rows joined by `;`) exits 2 with one stderr
    line and no output, pinned with its label in `run_faults/errors.txt`:
    inputs absent and present off their clocks, on the base clock and on
    sub-clocks; a bool in an int column and an int in a bool one; a clock
    variable at fault, alone and with an input clocked on it at the same
    tick, declared before it or after; two inputs on one clock off it at
    the same tick, named in declaration order and not in the trace's column
    order; an input fault at a later tick than a division by zero, which the
    check before the first tick finds first; and an input fault after a tick
    where every input is absent, so that the default base clock is the
    presence fold and not always live; an int cell with a `_` digit
    separator, a `+` sign (`ctr-incr-plus`) or a non-ASCII digit
    (`ctr-incr-arabic-digit`), each of which `int` would read; and a
    division by zero in the compiled run at tick 0 (`div-tick-0`), at tick 1
    (`div-tick-1`) and inside a callee's step at tick 2 (`divcall-tick-2`),
    which the run gives its tick."""
    root = DATA.parent.parent
    got = []
    for row in (DATA / "run_faults" / "traces.txt").read_text().splitlines():
        label, program, node, rows = row.split("\t")
        trace = tmp_path / f"{label}.csv"
        trace.write_text(rows.replace(";", "\n") + "\n")
        code = main(["run", str(root / program), "--node", node, "--inputs", str(trace)])
        out, err = capsys.readouterr()
        assert (code, out, err.count("\n")) == (2, "", 1), label
        got.append(f"{label}: {err}")
    assert "".join(got) == (DATA / "run_faults" / "errors.txt").read_text()


_NESTED_FORMS = {  # form: interface, one level around {}, innermost expression
    "fby": ("x: int) returns (y: int", "0 fby {}", "x"),
    "if": ("b: bool; x: int) returns (y: int", "if b then x else {}", "x"),
    "not": ("b: bool) returns (y: bool", "not {}", "b"),
    "sum": ("x: int) returns (y: int", "({} + x)", "x"),
    "merge": ("c: bool; x: int) returns (y: int", "merge c ({} when c) (x when not c)", "x"),
    "neg": ("x: int) returns (y: int", "-({})", "x")}


def _nested_program(form: str, depth: int) -> str:
    """A node whose one equation nests `form` `depth` times."""
    interface, level, leaf = _NESTED_FORMS[form]
    rhs = leaf
    for _ in range(depth):
        rhs = level.format(rhs)
    return f"node f({interface}); let y = {rhs}; tel\n"


@pytest.mark.parametrize("command", [["signature"], ["normalize"], ["check"],
                                     ["preserve", "--trials", "2"]], ids=lambda c: c[0])
@pytest.mark.parametrize("form, depth", [("fby", 400), ("if", 200), ("not", 800), ("sum", 200),
                                         ("merge", 150), ("neg", 100)])
def test_nesting_within_the_recursion_budget(tmp_path, capsys, command, form, depth):
    """Every walk of each command, the printer's and the checks' included,
    takes these depths: one stack frame per level of nesting. `check` runs
    on the assignment that labels the whole interface `L`."""
    src = tmp_path / "nested.lus"
    src.write_text(_nested_program(form, depth))
    if command == ["check"]:
        inputs = {d.name: "L" for d in parse_program(src.read_text()).nodes[0].inputs}
        low = {"node": "f", "base": "L", "inputs": inputs, "outputs": {"y": "L"}}
        (tmp_path / "low.json").write_text(json.dumps(low))
        command = ["check", "--lattice", "two-point", "--assign", str(tmp_path / "low.json")]
    assert main([command[0], str(src)] + command[1:]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["signature", "normalize"])
def test_nesting_past_the_recursion_budget(tmp_path, capsys, command):
    """600 nested `fby` weigh 1200, past the parser's bound of 800: refused at
    the equation, before any pass after parsing could run out of stack."""
    src = tmp_path / "nested.lus"
    src.write_text(_nested_program("fby", 600))
    assert main([command, str(src)]) == 2
    assert capsys.readouterr().err == f"{src}:1:38: nesting-too-deep: expression nested too deeply\n"


def test_check_json_schema(files, capsys):
    main(["check", str(files / "leak.lus"), "--lattice", "two-point",
          "--assign", str(files / "leak.json"), "--json"])
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, CHECK_REPORT_SCHEMA)
    assert data["verdict"] == "insecure"


def test_parse_error_exit_two(files, capsys):
    bad = files / "bad.lus"
    bad.write_text("node f() returns (x: int); let x = 1 + ; tel")
    assert main(["signature", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.lus:" in err and "syntax-error" in err


def test_missing_file_exit_two(files):
    assert main(["signature", str(files / "nope.lus")]) == 2


def test_usage_error_exit_two(files):
    assert main(["frobnicate"]) == 2


def test_normalize_emits_core_form(files, capsys):
    assert main(["normalize", str(files / "retrig.lus")]) == 0
    out = capsys.readouterr().out
    assert "cnt_dn(" in out and "fby" in out
    from luset.parser import parse_program
    reparsed = parse_program(out)
    assert {n.name for n in reparsed.nodes} == {"cnt_dn", "re_trig"}


NORMALIZED = {
    CNT_DN_SRC: """node cnt_dn(res: bool; n: int) returns (cpt: int);
var v1: int; v2: bool; v3: int;
let
  v2 = true fby false;
  v3 = 0 fby cpt - 1;
  v1 = if v2 then n else v3;
  cpt = if res then n else v1;
tel
""",
    RE_TRIG_SRC: """node cnt_dn(res: bool; n: int) returns (cpt: int);
var v1: int; v2: bool; v3: int;
let
  v2 = true fby false;
  v3 = 0 fby cpt - 1;
  v1 = if v2 then n else v3;
  cpt = if res then n else v1;
tel

node re_trig(i: bool; n: int) returns (o: bool);
var edge, ck: bool; v: int; v4, v5: bool; v6: int when ck;
let
  v4 = false fby not i;
  edge = i and v4;
  v5 = false fby o;
  ck = edge or v5;
  v6 = cnt_dn(edge when ck, n when ck); -- on base on ck
  v = merge ck v6 (0 when not ck);
  o = v > 0;
tel
""",
    CTR_SPDMTR_SRC: """node Ctr(init, incr: int; rst: bool) returns (n: int);
var fst: bool; pre_n: int;
let
  n = if fst or rst then init else pre_n + incr;
  fst = true fby false;
  pre_n = 0 fby n;
tel

node SpdMtr(acc: int) returns (spd, pos: int);
let
  spd = Ctr(0, acc, false);
  pos = Ctr(3, spd, false);
tel
""",
}


@pytest.mark.parametrize("src", list(NORMALIZED), ids=["cnt_dn", "re_trig", "ctr_spdmtr"])
def test_normalize_golden_text(tmp_path, capsys, src):
    (tmp_path / "p.lus").write_text(src)
    assert main(["normalize", str(tmp_path / "p.lus")]) == 0
    assert capsys.readouterr().out == NORMALIZED[src]


def test_normalize_bad_emit_target(files):
    assert main(["normalize", str(files / "retrig.lus"), "--emit", "xyz"]) == 2


def test_ni_json_schema_and_exit(files, capsys):
    code = main(["ni", str(files / "leak.lus"), "--node", "Leak",
                 "--lattice", "two-point", "--assign", str(files / "leak.json"),
                 "--level", "L", "--trials", "10", "--ticks", "8",
                 "--force", "--json", "--seed", "3"])
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, NI_REPORT_SCHEMA)
    assert data[0]["verdict"] == "fail"


def test_ni_skipped_reports_name_their_level(files, capsys):
    code = main(["ni", str(files / "leak.lus"), "--node", "Leak",
                 "--lattice", "two-point", "--assign", str(files / "leak.json")])
    assert code == 0
    reason = "  reason: assignment does not satisfy the node constraints\n"
    assert capsys.readouterr().out == (
        "non-interference Leak at level L: vacuously-skipped (0 trials, seed 0)\n" + reason +
        "non-interference Leak at level H: vacuously-skipped (0 trials, seed 0)\n" + reason)
    main(["ni", str(files / "leak.lus"), "--node", "Leak", "--lattice", "two-point",
          "--assign", str(files / "leak.json"), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert [(r["verdict"], r["level"], r["satisfied"]) for r in data] == [
        ("vacuously-skipped", "L", False), ("vacuously-skipped", "H", False)]


def test_ni_pass_exit_zero(files, capsys):
    code = main(["ni", str(files / "ctr.lus"), "--node", "Ctr",
                 "--lattice", "two-point", "--assign", str(files / "ctr_low.json"),
                 "--trials", "10", "--ticks", "8", "--seed", "1"])
    assert code == 0


def test_ni_exit_codes_stable_across_runs(files, capsys):
    args = ["ni", str(files / "ctr.lus"), "--node", "Ctr",
            "--lattice", "two-point", "--assign", str(files / "ctr_low.json"),
            "--trials", "5", "--ticks", "8", "--seed", "42", "--json"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert (code1, out1) == (code2, out2)


def test_preserve_command(files, capsys):
    code = main(["preserve", str(files / "retrig.lus"), "--trials", "10",
                 "--ticks", "16", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    checks = {d["check"] for d in data}
    assert checks == {"semantics-preservation", "type-preservation"}
    assert all(d["verdict"] == "pass" for d in data)


def test_inconclusive_preserve_exits_two_with_its_report(tmp_path, capsys):
    (tmp_path / "d.lus").write_text("node D(x: int) returns (y: int); let y = 10 div x; tel")
    assert main(["preserve", str(tmp_path / "d.lus")]) == 2
    out, err = capsys.readouterr()
    assert out.startswith("semantics-preservation D: inconclusive (1 trials, seed 0)\n"
                          "  reason: div-by-zero at tick 7")
    assert "type-preservation: pass" in out
    assert err == ""


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_a_refused_build_leaves_the_semantics_check_inconclusive(capsys, as_json):
    """`(a, b) = (b, x)` normalises, since normalisation splits the tuple,
    but is not causal, so the code generator refuses it: the semantics check
    is inconclusive with the refusal as its reason, before any trial, and
    the type check still reports."""
    argv = ["preserve", str(DATA / "tuple_cycle.lus")] + ["--json"] * as_json
    assert main(argv) == 2
    out, err = capsys.readouterr()
    if as_json:
        assert out == (DATA / "preserve_tuple_cycle.json").read_text()
    else:
        assert out == ("semantics-preservation f: inconclusive (0 trials, seed 0)\n"
                       "  reason: f: causality cycle through b\n"
                       "type-preservation: pass (4 trials)\n")
    assert err == ""


def test_inconclusive_ni_exits_two_with_its_report(tmp_path, capsys):
    """Every input is public, so the top level would run the node once per
    trial; its division keeps the trials, and the first raise ends them."""
    (tmp_path / "d.lus").write_text("node D(x: int) returns (y: int); let y = 10 div x; tel")
    (tmp_path / "d.json").write_text('{"node": "D", "base": "L", "inputs": {"x": "L"}, '
                                     '"outputs": {"y": "L"}}')
    assert main(["ni", str(tmp_path / "d.lus"), "--node", "D", "--lattice", "two-point",
                 "--assign", str(tmp_path / "d.json"), "--level", "H"]) == 2
    out, err = capsys.readouterr()
    assert out == ("non-interference D at level H: inconclusive (1 trials, seed 0)\n"
                   "  reason: div-by-zero at tick 7: division by zero\n")
    assert err == ""


@pytest.mark.parametrize("verdicts, code", [
    ([], 0), (["pass", "vacuously-skipped"], 0), (["pass", "inconclusive"], 2),
    (["inconclusive", "fail", "pass"], 1), (["vacuously-skipped", "fail"], 1)])
def test_checks_exit_code_ranks_fail_over_inconclusive(verdicts, code):
    assert _checks_exit_code([CheckReport("c", v) for v in verdicts]) == code


def test_suite_command(capsys):
    code = main(["suite", "--programs", "2", "--samples", "40",
                 "--trials", "5", "--ticks", "8", "--seed", "0", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert any(d["check"] == "non-interference" for d in data)
    assert all(d["verdict"] in ("pass", "vacuously-skipped") for d in data)


@pytest.mark.parametrize("rhs", ["(a = b) = c", "(a < b) = c"])
def test_normalize_output_is_a_fixpoint(tmp_path, capsys, rhs):
    """Comparisons do not chain, so a comparison left of another one keeps
    its parentheses and normalising the output again reproduces it."""
    src = tmp_path / "cmp.lus"
    src.write_text(f"node f(a, b: int; c: bool) returns (y: bool); let y = {rhs}; tel\n")
    assert main(["normalize", str(src)]) == 0
    once = capsys.readouterr().out
    (tmp_path / "once.lus").write_text(once)
    assert main(["normalize", str(tmp_path / "once.lus")]) == 0
    assert capsys.readouterr().out == once
