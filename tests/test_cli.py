import hashlib
import io
import itertools
import json
import random
import subprocess
import sys

import pytest

from wirecat import cli, endo, errors, graphs, lie, wiring, wprop
from wirecat.sampling import (
    endo_sampler,
    random_composable_pair,
    random_decorated_element,
    random_diagram_with_output,
    random_fraction,
    random_graph,
    random_graph_with_boundary,
    random_tensor,
    random_wiring_diagram,
)


def run(args, inp=None):
    r = subprocess.run([sys.executable, "-m", "wirecat.cli"] + list(args),
                       capture_output=True, text=True, input=inp)
    return r.returncode, r.stdout, r.stderr


@pytest.fixture(scope="module")
def wd_json():
    return wiring.to_json(random_wiring_diagram(random.Random(71)))


def test_validate_wd_stdin(wd_json):
    rc, out, _ = run(["validate", "--type", "wd", "-"], inp=wd_json)
    assert rc == 0
    assert json.loads(out) == {"ok": True, "type": "wd"}


def test_validate_domain_error_exit_1():
    # The second input mixes label types, which cannot be ordered by value.
    for labels in ('["a"]', '["a", 1]'):
        bad = ('{"output":{"out":%s,"in":[]},"inputs":[],'
               '"matching":[],"circles":0}' % labels)
        rc, out, err = run(["validate", "--type", "wd", "-"], inp=bad)
        assert rc == 1 and not out
        msg = json.loads(err)
        assert msg["error"] == "NonBijectiveMatching"


TRUE_LABEL_WD = ('{"output":{"out":[1,true],"in":[2]},"inputs":[],'
                 '"matching":[[[0,"out",true],[0,"in",2]]],"circles":0}')

# A corolla with in-leg "a" and out-leg "b", and decoration rows for it whose
# symbol is no string, whose slots are no labels, or whose slot is no leg.
DECOR_GRAPH = ('{"vertices": [[0, 1]], "delta": [[0, 1], [1, -1]], '
               '"lambda": [[0, "a"], [1, "b"]], "beta": [[0, "a"], [1, "b"]]}')
BAD_DECOR = {"symbol": '[7, ["a"], ["b"]]', "slots": '["f", [true], [1.5]]',
             "leg": '["f", ["zz"], ["b"]]'}
DECOR_ELEMENT = '{"in": ["a"], "out": ["b"], "terms": [{"graph": %s, "decor": [%s]}]}'
# Two vertices, a -> b and c -> nothing, whose rows use "f" at two arities.
ARITY_GRAPH = ('{"vertices": [[0, 1], [2]], "delta": [[0, 1], [1, -1], [2, 1]], '
               '"lambda": [[0, "a"], [1, "b"], [2, "c"]], '
               '"beta": [[0, "a"], [1, "b"], [2, "c"]]}')
ARITY_ROWS = '["f", ["a"], ["b"]], ["f", ["c"], []]'
ARITY_ELEMENT = ('{"in": ["a", "c"], "out": ["b"], "terms": [{"graph": %s, "decor": [%s]}]}'
                 % (ARITY_GRAPH, ARITY_ROWS))

# Inputs that repeat an entry of a list the loader reads as a set or a map,
# with the list and the item its refusal names.
ONE_FLAG = '{"vertices": [%s], "delta": [%s], "lambda": [%s], "beta": [%s]}'
REPEATED = [
    ("graph", ONE_FLAG % ("[0]", "[0, 1]", '[0, "a"], [0, "b"]', '[0, "x"]'), "lambda", "0"),
    ("graph", ONE_FLAG % ("[0]", "[0, 1], [0, -1]", '[0, "a"]', '[0, "x"]'), "delta", "0"),
    ("graph", ONE_FLAG % ("[0]", "[0, 1]", '[0, "a"]', '[0, "x"], [0, "y"]'), "beta", "0"),
    ("graph", ONE_FLAG % ("[0, 0]", "[0, 1]", '[0, "a"]', '[0, "x"]'), "vertex 1", "0"),
    ("graph", ONE_FLAG % ("[true, 1]", "[1, 1]", '[1, "a"]', '[1, "x"]'), "vertex 1", "1"),
    ("graph", '{"exceptional": [0, 1, 1], "pi": [[0, 1]], "delta": [[0, 1], [1, -1]], '
              '"beta": [[0, "a"], [1, "b"]]}', "exceptional", "1"),
    ("wd", '{"output": {"out": ["a", "a"], "in": ["a"]}, "inputs": [], '
           '"matching": [[[0, "out", "a"], [0, "in", "a"]]]}', "box 0 out-labels", "'a'"),
    ("wd", '{"output": {"out": ["a"], "in": ["a"]}, "inputs": [], '
           '"matching": [[[0, "out", "a"], [0, "in", "a"]], [[0, "out", "a"], [0, "in", "a"]]]}',
     "matching", "(0, 'out', 'a')"),
    ("element", '{"in": ["a", "a"], "out": [], "terms": []}', "in-labels", "'a'"),
]

# Shape faults deep in an input, with the part of it that the message shows.
DEEP_FAULTS = [
    ("graph", '{"vertices": [[0, 1], [2, 3], [4, 5]], "delta": [[0, 1], [1, -1], [2, 1], '
              '[3, -1], [4, 1], [5, true]], "lambda": [[0, "a"], [1, "b"], [2, "a"], '
              '[3, "b"], [4, "a"], [5, "b"]], "iota": [[1, 2], [3, 4]], '
              '"beta": [[0, "a"], [5, "b"]]}', "[5, True]"),
    ("wd", '{"output": {"out": ["a"], "in": ["b"]}, "inputs": [{"out": ["b"], "in": ["a"]}], '
           '"matching": [[[0, "out", "a"], [1, "in", "a"]], [[1, "out", "b"], [0, "in", true]]], '
           '"circles": 0}', "[[1, 'out', 'b'], [0, 'in', True]]"),
    ("tensor", '{"dim": 1, "axes": [["in", "a"], ["in", "b"], ["in", "c"], ["out", "d"], '
               '["out", "e"], ["out", true]], "data": ["1"]}', "['out', True]"),
]


@pytest.mark.parametrize("kind, text", [
    ("graph", '{"vertices": 5}'),
    ("graph", "[]"),
    ("graph", '{"vertices": [[[1]]]}'),
    ("tensor", '{"dim": -1, "axes": [], "data": ["1"]}'),
    ("tensor", "[]"),
    ("tensor", '{"dim": 2, "axes": []}'),
    ("tensor", '{"dim": 2, "axes": [["in", ["a"]]], "data": ["1", "2"]}'),
    ("tensor", '{"dim": 2, "axes": [["in", "a"]], "data": "12"}'),
    ("tensor", '{"dim": 2, "axes": [["in"]], "data": ["1", "2"]}'),
    ("tensor", '{"dim": 2, "axes": [["sideways", "a"]], "data": ["1", "2"]}'),
    ("tensor", '{"dim": 2, "axes": [["in", "a", "b"]], "data": ["1", "2"]}'),
    ("tensor", '{"dim": 2, "axes": [["in", "a"]], "data": [["1"], "2"]}'),
    ("tensor", '{"dim": 2, "axes": [["in", "a"]], "data": ["1/0", "2"]}'),
    ("tensor", '{"dim": 1, "axes": [], "data": [0.1]}'),
    ("tensor", '{"dim": 1, "axes": [], "data": [true]}'),
    ("wd", "[]"),
    ("wd", '{"output": 5}'),
    ("wd", '{"output": {"out": [], "in": []}, "circles": 1.5}'),
    ("wd", '{"output": {"out": ["a", 1], "in": []}, "inputs": [], "matching": [], "circles": 0}'),
    ("element", "[]"),
    ("graph", '{"iota": 5}'),
    ("graph", '{"vertices": [["a"]], "delta": 5}'),
    ("graph", '{"vertices": [], "iota": [[5, 6]]}'),
    ("graph", '{"vertices": [], "delta": [[7, 1]]}'),
    ("element", '{"in": [], "out": [], "terms": [{"graph": {"loops": 1}, "coeff": "1/0"}]}'),
    ("element", '{"in": [], "out": [], "terms": [{"graph": {"loops": 1}, "coeff": 0.1}]}'),
    # Another format's file, a misspelled key, and labels or boxes that JSON
    # types other than the format's (``true`` is no label, nor box 1).
    ("element", '{"vertices": [[0]], "delta": [[0, 1]], "lambda": [[0, "x"]], '
                '"beta": [[0, "a"]]}'),
    ("graph", '{"output": {"out": [], "in": []}, "inputs": [], "matching": [], '
              '"circles": 0}'),
    ("wd", '{"output": {"out": [], "in": []}, "inputs": [], "matching": [], "circle": 2}'),
    ("wd", TRUE_LABEL_WD),
    ("wd", '{"output": {"out": ["a"], "in": ["b"]}, "inputs": [{"out": ["b"], "in": ["a"]}], '
           '"matching": [[[0, "out", "a"], [true, "in", "a"]], '
           '[[1, "out", "b"], [0, "in", "b"]]], "circles": 0}'),
    *[("element", DECOR_ELEMENT % (DECOR_GRAPH, row)) for row in BAD_DECOR.values()],
    # A direction is the integer 1 or -1, never ``true`` or ``1.0``.
    ("graph", ONE_FLAG % ("[0]", "[0, true]", '[0, "a"]', '[0, "x"]')),
    ("graph", ONE_FLAG % ("[0]", "[0, 1.0]", '[0, "a"]', '[0, "x"]')),
    *[(kind, text) for kind, text, _, _ in REPEATED],
    *[(kind, text) for kind, text, _ in DEEP_FAULTS],
])
def test_malformed_input_names_its_error(kind, text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["validate", "--type", kind, "-"]) == 1
    out, err = capsys.readouterr()
    assert not out
    msg = json.loads(err)
    assert issubclass(getattr(errors, msg["error"]), errors.WirecatError)
    assert all(part in msg["message"] for _, t, part in DEEP_FAULTS if t == text)


@pytest.mark.parametrize("ins, twice, never", [
    (["c"], [(0, "in", "c")], []),
    (["c", "d"], [(0, "in", "c")], [(0, "in", "d")]),
])
def test_a_matching_names_the_in_endpoints_it_misses(ins, twice, never, monkeypatch, capsys):
    # Out-labels a and b of box 0 both match in-label c.
    text = json.dumps({"output": {"out": ["a", "b"], "in": ins}, "inputs": [],
                       "matching": [[[0, "out", "a"], [0, "in", "c"]],
                                    [[0, "out", "b"], [0, "in", "c"]]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["validate", "--type", "wd", "-"]) == 1
    out, err = capsys.readouterr()
    assert not out and json.loads(err) == {
        "error": "NonBijectiveMatching",
        "message": "in-endpoints hit more than once %r, never hit %r" % (twice, never)}


@pytest.mark.parametrize("kind, text, where, item", REPEATED)
def test_a_repeated_entry_is_refused_not_merged(kind, text, where, item, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["validate", "--type", kind, "-"]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert json.loads(err)["message"] == "RepeatedEntry: %s twice in %s" % (item, where)


def test_a_true_label_is_refused_not_read_as_1(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(TRUE_LABEL_WD))
    assert cli.main(["to-graph", "-"]) == 1
    out, err = capsys.readouterr()
    assert not out and json.loads(err)["error"] == "InvalidDiagram"


@pytest.mark.parametrize("label", ["true", "1.5"])
@pytest.mark.parametrize("key", ["beta", "lambda"])
def test_to_wd_refuses_a_label_the_wd_loader_would(key, label, monkeypatch, capsys):
    # Graph labels become diagram labels, so they are typed alike.
    labels = {"lambda": '"x"', "beta": '"a"', key: label}
    text = ('{"vertices": [[0]], "delta": [[0, 1]], "lambda": [[0, %s]], '
            '"beta": [[0, %s]]}' % (labels["lambda"], labels["beta"]))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["to-wd", "-"]) == 1
    out, err = capsys.readouterr()
    assert not out and json.loads(err)["error"] == "InvalidGraph"


@pytest.mark.parametrize("label", ["true", "1.5"])
def test_element_boundary_labels_are_typed(label, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        '{"in": [%s], "out": [], "terms": []}' % label))
    assert cli.main(["validate", "--type", "element", "-"]) == 1
    out, err = capsys.readouterr()
    assert not out and json.loads(err)["error"] == "InvalidGraph"


@pytest.mark.parametrize("fault, error", [("symbol", "InvalidGraph"),
                                          ("slots", "InvalidGraph"),
                                          ("leg", "ArityMismatch")])
def test_decor_rows_are_checked_where_they_are_loaded(fault, error, tmp_path, capsys):
    # ``validate`` and ``eval`` read decoration rows through one reader, which
    # refuses them before anything is evaluated.
    row = BAD_DECOR[fault]
    (tmp_path / "e.json").write_text(DECOR_ELEMENT % (DECOR_GRAPH, row))
    (tmp_path / "g.json").write_text('{"graph": %s, "decor": [%s]}' % (DECOR_GRAPH, row))
    (tmp_path / "b.json").write_text('{"f": [["1"]], "7": [["1"]]}')
    for argv in (["validate", "--type", "element", str(tmp_path / "e.json")],
                 ["eval", "--dim", "1", str(tmp_path / "g.json"), str(tmp_path / "b.json")]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert not out and json.loads(err)["error"] == error


def test_eval_binds_one_arity_per_symbol(tmp_path, capsys):
    # A free-prop element's generators are graded by arity, so an element may
    # use one symbol at two arities; ``eval`` binds one tensor per symbol, so
    # it refuses that, naming the symbol and both arities.
    (tmp_path / "e.json").write_text(ARITY_ELEMENT)
    assert cli.main(["validate", "--type", "element", str(tmp_path / "e.json")]) == 0
    capsys.readouterr()
    (tmp_path / "g.json").write_text('{"graph": %s, "decor": [%s]}' % (ARITY_GRAPH, ARITY_ROWS))
    for binding in ('["1", "0"]', '[["1", "0"], ["0", "1"]]'):
        (tmp_path / "b.json").write_text('{"f": %s}' % binding)
        assert cli.main(["eval", "--dim", "2", str(tmp_path / "g.json"),
                         str(tmp_path / "b.json")]) == 1
        out, err = capsys.readouterr()
        msg = json.loads(err)
        assert not out and msg["error"] == "ArityMismatch"
        assert all(part in msg["message"] for part in ("'f'", "(1, 1)", "(1, 0)"))


def test_a_shape_fault_names_the_row_at_fault(tmp_path, capsys):
    # The rows are long enough that the whole input's first 80 characters
    # never reach the bad one.
    rows = ", ".join(['["f", ["a"], ["b"]]'] * 3 + [BAD_DECOR["symbol"]])
    (tmp_path / "e.json").write_text(DECOR_ELEMENT % (DECOR_GRAPH, rows))
    (tmp_path / "g.json").write_text('{"graph": %s, "decor": [%s]}' % (DECOR_GRAPH, rows))
    (tmp_path / "b.json").write_text('{"f": [["1"]]}')
    for argv in (["validate", "--type", "element", str(tmp_path / "e.json")],
                 ["eval", "--dim", "1", str(tmp_path / "g.json"), str(tmp_path / "b.json")]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        msg = json.loads(err)
        assert not out and msg["error"] == "InvalidGraph"
        assert "[7, ['a'], ['b']]" in msg["message"]


@pytest.mark.parametrize("entry", [0.5, True, "1/0"])
def test_bindings_and_brackets_must_be_exact(entry, tmp_path, capsys):
    [(_, g, decor)] = list(lie.kappa_element(2).terms.values())
    (tmp_path / "g.json").write_text(json.dumps({
        "graph": graphs.to_obj(g),
        "decor": [[sym, list(ins), list(outs)] for sym, ins, outs in decor],
    }))
    (tmp_path / "b.json").write_text(json.dumps([[[entry]]]))
    (tmp_path / "bind.json").write_text(json.dumps({"br": [[[entry]]]}))
    for argv in (["killing", "--bracket", str(tmp_path / "b.json"), "--n", "2"],
                 ["eval", "--dim", "1", str(tmp_path / "g.json"),
                  str(tmp_path / "bind.json")]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert not out and json.loads(err)["error"] == "InvalidTensor"


def test_negative_loop_count_is_named_as_such(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"vertices": [], "loops": -1}'))
    assert cli.main(["validate", "--type", "graph", "-"]) == 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert "LoopCount: -1" in message and "flag" not in message


_EIGHTS = [[[str(k) for k in range(1, 9)] for _ in range(8)] for _ in range(8)]
_EIGHTS[7][7][7] = True


@pytest.mark.parametrize("eval_input, bindings, dim, named", [
    ({}, None, 3, None),
    ("two-item decoration", None, 3, None),
    (None, [], 3, "bindings are a list,"),
    (None, {}, 3, None),
    (None, {"br": [[["1"]], [["1", "2"]]]}, 3, "binding 'br': [[['1']], "),
    (None, {"br": _EIGHTS}, 8, "binding 'br'[7][7][7]: True is inexact"),
])
def test_eval_input_shape_names_its_error(eval_input, bindings, dim, named, tmp_path,
                                          capsys):
    [(_, g, decor)] = list(lie.kappa_element(2).terms.values())
    decor = [[sym, list(ins), list(outs)] for sym, ins, outs in decor]
    if eval_input == "two-item decoration":
        eval_input = {"graph": graphs.to_obj(g), "decor": [d[:2] for d in decor]}
    (tmp_path / "g.json").write_text(json.dumps(
        {"graph": graphs.to_obj(g), "decor": decor} if eval_input is None else eval_input))
    (tmp_path / "b.json").write_text(json.dumps(
        {"br": lie.sl2_bracket()} if bindings is None else bindings, default=str))
    assert cli.main(["eval", "--dim", str(dim), str(tmp_path / "g.json"),
                     str(tmp_path / "b.json")]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert issubclass(getattr(errors, json.loads(err)["error"]), errors.WirecatError)
    assert named is None or named in json.loads(err)["message"]


@pytest.mark.parametrize("bracket", [[[1]], [[1, 2, 3, 4], [5, 6, 7, 8]],
                                     [[[1, 2], [3, 4]]], [], [[[[1]]]]])
def test_bracket_must_be_a_cube(bracket, tmp_path, capsys):
    (tmp_path / "b.json").write_text(json.dumps(bracket))
    for argv in (["killing", "--n", "2"], ["semisimple"]):
        assert cli.main(argv + ["--bracket", str(tmp_path / "b.json")]) == 1
        out, err = capsys.readouterr()
        assert not out and json.loads(err)["error"] == "InvalidTensor"


def test_usage_error_exit_2():
    rc, _, _ = run(["compose"])
    assert rc == 2
    rc, _, _ = run(["no-such-command"])
    assert rc == 2


def test_translation_pipeline_roundtrip(wd_json):
    rc, graph_out, _ = run(["to-graph", "-"], inp=wd_json)
    assert rc == 0
    rc, wd_back, _ = run(["to-wd", "-"], inp=graph_out)
    assert rc == 0
    assert wiring.from_json(wd_back) == wiring.from_json(wd_json)
    # graph-side roundtrip lands on the same canonical form
    rc, graph_back, _ = run(["to-graph", "-"], inp=wd_back)
    assert rc == 0
    assert graphs.canonical_form(graphs.from_json(graph_back)) == \
        graphs.canonical_form(graphs.from_json(graph_out))


def pipe(cmd, text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main([cmd, "-"]) == 0
    return capsys.readouterr().out


def test_mixed_label_types_translate_and_back(monkeypatch, capsys):
    mixed = ('{"output": {"out": ["a", 1], "in": ["a", 1]}, "inputs": [], '
             '"matching": [[[0,"out","a"],[0,"in",1]], [[0,"out",1],[0,"in","a"]]], '
             '"circles": 0}')
    graph = pipe("to-graph", mixed, monkeypatch, capsys)
    back = pipe("to-wd", graph, monkeypatch, capsys)
    assert wiring.from_json(back) == wiring.from_json(mixed)
    assert json.loads(back)["output"] == {"out": [1, "a"], "in": [1, "a"]}


def test_integer_labels_keep_numeric_order(monkeypatch, capsys):
    d = wiring.identity_diagram([10, 2], [2, 10])
    graph = pipe("to-graph", wiring.to_json(d), monkeypatch, capsys)
    assert json.loads(graph)["lambda"] == [[0, 2], [1, 10], [2, 2], [3, 10]]
    back = pipe("to-wd", graph, monkeypatch, capsys)
    assert json.loads(back)["output"] == {"out": [2, 10], "in": [2, 10]}
    assert wiring.from_json(back) == d


def test_compose_matches_library(tmp_path):
    from wirecat.sampling import random_composable_pair
    d, i, inner = random_composable_pair(random.Random(72))
    (tmp_path / "d.json").write_text(wiring.to_json(d))
    (tmp_path / "inner.json").write_text(wiring.to_json(inner))
    rc, out, _ = run(["compose", "--at", str(i),
                      str(tmp_path / "d.json"), str(tmp_path / "inner.json")])
    assert rc == 0
    assert wiring.from_json(out) == d.compose(i, inner)


def test_substitute_matches_library(tmp_path):
    from wirecat.sampling import random_graph_with_boundary
    rng = random.Random(73)
    while True:
        g = random_graph_with_boundary(rng, ["p0"], ["q0"])
        if g.r:
            break
    v = 1
    ins, outs = g.neighbourhood(v)
    h = random_graph_with_boundary(rng, sorted(ins), sorted(outs))
    (tmp_path / "g.json").write_text(graphs.to_json(g))
    (tmp_path / "h.json").write_text(graphs.to_json(h))
    rc, out, _ = run(["substitute", "--at", "1",
                      str(tmp_path / "g.json"), str(tmp_path / "h.json")])
    assert rc == 0
    assert graphs.canonical_form(graphs.from_json(out)) == \
        graphs.canonical_form(graphs.substitute(g, v, h))


def test_flatten_and_compose_free(tmp_path):
    rng = random.Random(74)
    e = random_decorated_element(rng, ["p0"], ["q0"], max_terms=1)
    ins, outs = e.boundary()
    outer = graphs.corolla(ins, outs)
    (tmp_path / "outer.json").write_text(graphs.to_json(outer))
    (tmp_path / "e.json").write_text(wprop.to_json(e))
    rc, out, _ = run(["flatten", str(tmp_path / "outer.json"),
                      str(tmp_path / "e.json")])
    assert rc == 0
    assert wprop.from_json(out) == e

    f = random_decorated_element(rng, ["r0"], ["s0"], max_terms=1)
    (tmp_path / "f.json").write_text(wprop.to_json(f))
    rc, out, _ = run(["compose-free", "--at-in", "p0", "--at-out", "s0",
                      str(tmp_path / "e.json"), str(tmp_path / "f.json")])
    assert rc == 0
    assert wprop.from_json(out) == wprop.dioperadic(e, "p0", f, "s0")


def test_compose_free_rejects_stray_delta(tmp_path, capsys):
    # A free edge p0 -> q0 whose delta also directs flag 7, in no cell.
    graph = {"exceptional": [0, 1], "pi": [[0, 1]], "beta": [[0, "p0"], [1, "q0"]],
             "delta": [[0, 1], [1, -1], [7, 1]]}
    (tmp_path / "a.json").write_text(json.dumps(
        {"in": ["p0"], "out": ["q0"], "terms": [{"graph": graph, "decor": []}]}))
    (tmp_path / "b.json").write_text(wprop.to_json(wprop.unit("s0")))
    assert cli.main(["compose-free", "--at-in", "p0", "--at-out", "s0",
                     str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert json.loads(err)["error"] == "InvalidGraph" and "DeltaMismatch" in err


def test_axioms_deterministic_and_passing():
    args = ["axioms", "--impl", "endo", "--dim", "2",
            "--trials", "8", "--seed", "9"]
    rc1, out1, _ = run(args)
    rc2, out2, _ = run(args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["ok"]
    for name in ("H1", "H2", "H3", "H4", "C1", "C2", "HC1", "HC2"):
        assert report[name]["ok"]


@pytest.mark.parametrize("argv, error", [
    (["--impl", "endo", "--dim", "0", "--trials", "2"], "DimMismatch"),
    (["--impl", "endo", "--dim", "-1"], "DimMismatch"),
    (["--trials", "-1"], "BoundExceeded"),
    (["--trials", "0"], "BoundExceeded"),
])
def test_axioms_input_names_its_error(argv, error, capsys):
    assert cli.main(["axioms"] + argv) == 1
    out, err = capsys.readouterr()
    assert not out and json.loads(err)["error"] == error


@pytest.mark.parametrize("argv, error, names", [
    (["--n", "0"], "BoundExceeded", ["n=0"]),
    (["--n", "-1"], "BoundExceeded", ["n=-1"]),
])
def test_killing_input_names_its_error(argv, error, names, tmp_path, capsys):
    (tmp_path / "sl2.json").write_text(json.dumps(lie.sl2_bracket(), default=str))
    assert cli.main(["killing", "--bracket", str(tmp_path / "sl2.json")] + argv) == 1
    out, err = capsys.readouterr()
    msg = json.loads(err)
    assert not out and msg["error"] == error
    assert all(name in msg["message"] for name in names)
    assert cli.main(["killing", "--bracket", str(tmp_path / "sl2.json"), "--n", "2"]) == 0


def test_eval_subcommand(tmp_path):
    el = lie.kappa_element(2)
    [(coeff, g, decor)] = list(el.terms.values())
    assert coeff == 1
    (tmp_path / "g.json").write_text(json.dumps({
        "graph": graphs.to_obj(g),
        "decor": [[sym, list(ins), list(outs)] for sym, ins, outs in decor],
    }))
    B = lie.sl2_bracket()
    (tmp_path / "b.json").write_text(json.dumps(
        {"br": [[[str(x) for x in row] for row in plane] for plane in B]}))
    rc, out, _ = run(["eval", "--dim", "3", str(tmp_path / "g.json"),
                      str(tmp_path / "b.json")])
    assert rc == 0
    from wirecat import endo
    assert endo.from_json(out) == lie.killing_eval(B, 2, 3)


def test_eval_output_loads_as_a_tensor(tmp_path, monkeypatch, capsys):
    # A boundary leg labelled null gives an axis labelled null; what eval
    # prints, the tensor loader reads, while labels true and 1.5 stay refused.
    (tmp_path / "e.json").write_text(json.dumps({
        "graph": {"vertices": [[0]], "delta": [[0, 1]], "lambda": [[0, None]],
                  "beta": [[0, None]]},
        "decor": [["f", [None], []]]}))
    (tmp_path / "b.json").write_text(json.dumps({"f": ["1", "2"]}))
    assert cli.main(["eval", "--dim", "2", str(tmp_path / "e.json"),
                     str(tmp_path / "b.json")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["axes"] == [["in", None]]
    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    assert cli.main(["validate", "--type", "tensor", "-"]) == 0
    capsys.readouterr()
    for label in ("true", "1.5"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            '{"dim": 2, "axes": [["in", %s]], "data": ["1", "2"]}' % label))
        assert cli.main(["validate", "--type", "tensor", "-"]) == 1
        out, err = capsys.readouterr()
        assert not out and json.loads(err)["error"] == "InvalidTensor"


def test_lie_and_trace_dims():
    rc, out, _ = run(["lie-dim", "4"])
    assert rc == 0 and json.loads(out) == {"n": 4, "dim": 6}
    rc, out, _ = run(["trace-dim", "2"])
    assert rc == 0
    rep = json.loads(out)
    assert rep["dim"] == 1
    rc, _, err = run(["lie-dim", "9"])
    assert rc == 1 and json.loads(err)["error"] == "BoundExceeded"


# Standard output of `wirecat trace-dim n` and `wirecat lie-dim n`.  A trace
# basis is the set of symbols the pivots leave out, listed in symbol order, so
# a change in the eliminator's pivot order shows here.
CLI_GOLDENS = {
    ('trace-dim', '0'): '{"basis":[[1]],"dim":1,"n":0}\n',
    ('trace-dim', '1'): '{"basis":[[1,2]],"dim":1,"n":1}\n',
    ('trace-dim', '2'): '{"basis":[[2,1,3]],"dim":1,"n":2}\n',
    ('trace-dim', '3'): '{"basis":[[3,1,2,4],[3,2,1,4]],"dim":2,"n":3}\n',
    ('trace-dim', '4'): (
        '{"basis":[[4,1,2,3,5],[4,1,3,2,5],[4,2,1,3,5],[4,2,3,1,5],'
        '[4,3,1,2,5],[4,3,2,1,5]],"dim":6,"n":4}\n'
    ),
    ('trace-dim', '5'): (
        '{"basis":[[5,1,2,3,4,6],[5,1,2,4,3,6],[5,1,3,2,4,6],'
        '[5,1,3,4,2,6],[5,1,4,2,3,6],[5,1,4,3,2,6],[5,2,1,3,4,6],'
        '[5,2,1,4,3,6],[5,2,3,1,4,6],[5,2,3,4,1,6],[5,2,4,1,3,6],'
        '[5,2,4,3,1,6],[5,3,1,2,4,6],[5,3,1,4,2,6],[5,3,2,1,4,6],'
        '[5,3,2,4,1,6],[5,3,4,1,2,6],[5,3,4,2,1,6],[5,4,1,2,3,6],'
        '[5,4,1,3,2,6],[5,4,2,1,3,6],[5,4,2,3,1,6],[5,4,3,1,2,6],'
        '[5,4,3,2,1,6]],"dim":24,"n":5}\n'
    ),
    ('lie-dim', '2'): '{"dim":1,"n":2}\n',
    ('lie-dim', '3'): '{"dim":2,"n":3}\n',
    ('lie-dim', '4'): '{"dim":6,"n":4}\n',
    ('lie-dim', '5'): '{"dim":24,"n":5}\n',
    ('lie-dim', '6'): '{"dim":120,"n":6}\n',
    ('lie-dim', '7'): '{"dim":720,"n":7}\n',
}


@pytest.mark.parametrize("args", list(CLI_GOLDENS), ids="-".join)
def test_lie_and_trace_dim_goldens(args, capsys):
    assert cli.main(list(args)) == 0
    assert capsys.readouterr().out == CLI_GOLDENS[args]


# sha256 of the standard output of the larger `wirecat trace-dim n` calls.
TRACE_DIGESTS = {
    ('trace-dim', '6'): 'e680f4b53ae3fdc2e76d75c6a882d2281329188e4bac994fafc693cab2240446',
    ('trace-dim', '7'): '8b5b0dbb73734c0026dab1728b12f9175efbcb17ab5456a55d5d6ed0ad137ad1',
}


@pytest.mark.parametrize("args", list(TRACE_DIGESTS), ids="-".join)
def test_trace_dim_digests(args, capsys):
    assert cli.main(list(args)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TRACE_DIGESTS[args]


# sha256 of the standard output of ten seeded calls (seeds 0..9) of each
# command below.  Flag ids and matching order in that output come from how the
# glued strands are resolved and named, so a change there shows.  Terms are
# printed in the order of their own serialised JSON (not of their keys).
STRAND_GOLDENS = {
    "compose": "4aa416b4b5482722437d60f614c7c5fb738cc4d84aeeda746108e4ffa27f9ffb",
    "substitute": "fc490971f9e0d1faa5913ab65d31613781c98822701373de994827170dc064ae",
    "flatten": "12c57b7fe3c0c1b5c801c45c9b7250fb4374c0ece9856042e0103821cf385503",
    "compose-free": "180f331251579a20529f2836005264005c56aaac3806a993357168b0f25b8d15",
}


def strand_argv(cmd, rng, put):
    """Arguments for one seeded call of ``cmd``; ``put`` writes an input file."""
    if cmd == "compose":
        outer, at, inner = random_composable_pair(rng)
        return ["compose", "--at", str(at), put(wiring.to_json(outer)),
                put(wiring.to_json(inner))]
    if cmd == "substitute":
        g = random_graph(rng, max_vertices=4)
        while not g.r:
            g = random_graph(rng, max_vertices=4)
        v = rng.randint(1, g.r)
        ins, outs = g.neighbourhood(v)
        h = random_graph_with_boundary(rng, sorted(ins), sorted(outs))
        return ["substitute", "--at", str(v), put(graphs.to_json(g)),
                put(graphs.to_json(h))]
    if cmd == "flatten":
        g = random_graph(rng)
        inner = [random_decorated_element(rng, sorted(ins), sorted(outs))
                 for ins, outs in (g.neighbourhood(k + 1) for k in range(g.r))]
        return ["flatten", put(graphs.to_json(g))] + [
            put(wprop.to_json(e)) for e in inner]
    a = random_decorated_element(rng, ["p0", "p1"], ["q0"])
    b = random_decorated_element(rng, ["r0"], ["s0", "s1"])
    return ["compose-free", "--at-in", rng.choice(["p0", "p1"]),
            "--at-out", rng.choice(["s0", "s1"]),
            put(wprop.to_json(a)), put(wprop.to_json(b))]


@pytest.mark.parametrize("cmd", list(STRAND_GOLDENS))
def test_strand_command_goldens(cmd, tmp_path, capsys):
    paths = itertools.count()

    def put(text):
        path = tmp_path / ("%d.json" % next(paths))
        path.write_text(text)
        return str(path)

    digest = hashlib.sha256()
    for seed in range(10):
        assert cli.main(strand_argv(cmd, random.Random(seed), put)) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == STRAND_GOLDENS[cmd]


# sha256 of the standard output of ten seeded calls (seeds 0..9) of each
# translation command.  `to-graph` names its flags by numbering the diagram's
# endpoints, so a change in that numbering shows.  Even seeds draw diagrams and
# graphs of at most 2 boxes or vertices, odd seeds of up to 32; the graph side
# of the ten calls has free edges, free loops and twenty or more vertices.
TRANSLATE_GOLDENS = {
    "to-graph": "c00346176157aca8225ca2ce2cde8c6c3b54cd00fbde8f304a4d8a99d7bbc701",
    "to-wd": "198d5cc43de5f56c2441b348523af287485680d0d6d8ba9bd9b0ef2f06b58fad",
}


def translate_input(cmd, seed):
    """The JSON input of the seeded call of ``cmd``."""
    rng, size = random.Random(seed), (2, 32)[seed % 2]
    if cmd == "to-graph":
        return wiring.to_json(random_wiring_diagram(rng, max_boxes=size))
    return graphs.to_json(random_graph(rng, max_vertices=size))


@pytest.mark.parametrize("cmd", list(TRANSLATE_GOLDENS))
def test_translation_command_goldens(cmd, tmp_path, capsys):
    digest, sides = hashlib.sha256(), []
    for seed in range(10):
        path = tmp_path / ("%d.json" % seed)
        path.write_text(translate_input(cmd, seed))
        assert cli.main([cmd, str(path)]) == 0
        out = capsys.readouterr().out
        digest.update(out.encode())
        sides.append(json.loads(out if cmd == "to-graph" else path.read_text()))
    assert any(g["exceptional"] for g in sides)
    assert any(g["loops"] for g in sides)
    assert any(len(g["vertices"]) >= 20 for g in sides)
    assert digest.hexdigest() == TRANSLATE_GOLDENS[cmd]


# sha256 of ``wiring.to_json`` of each sampler's diagram for seeds 0..199, one
# line per seed.  Each seed draws its box and label limits first, and for
# ``random_diagram_with_output`` its output interface, so that the trimming and
# balancing branches all run; a change in what the sampler draws, or in what
# order, shows.
SAMPLER_GOLDENS = {
    "random_wiring_diagram": "c2eec0334d5755ce7c5cbb4948cccb6e784074657095a2d031ff2d0124b5b67d",
    "random_diagram_with_output": "ef8285f1a61d698dc2afa19dbd0c8901d4f507d24db970f516ebafce5a616088",
}


def sampler_json(name, seed):
    """``wiring.to_json`` of the diagram ``name`` draws at ``seed``."""
    rng = random.Random(seed)
    limits = {"max_boxes": rng.randint(0, 6), "max_labels": rng.randint(0, 4)}
    if name == "random_wiring_diagram":
        return wiring.to_json(random_wiring_diagram(rng, **limits))
    outs = ["x%d" % k for k in range(rng.randint(0, 4))]
    ins = ["y%d" % k for k in range(rng.randint(0, 4))]
    return wiring.to_json(random_diagram_with_output(rng, outs, ins, **limits))


@pytest.mark.parametrize("name", list(SAMPLER_GOLDENS))
def test_sampler_goldens(name):
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update((sampler_json(name, seed) + "\n").encode())
    assert digest.hexdigest() == SAMPLER_GOLDENS[name]


# sha256 over seeds 0..199 of ``endo.to_json`` and the denominator of one
# ``endo_sampler(d)`` draw for d = 1, 2, 3 and of ``random_tensor`` on the
# mixed labels [2, "a"] / [None, 10], one line each, then the seed's next
# ``rng.random()``.  A change in an entry, in the order or number of draws, or
# a tensor left out of lowest terms shows.
ENDO_SAMPLER_GOLDEN = "76d38ffa8c17ca6cbd379e0a6daca46ff7e9b8200c9db1207267dc3195379795"


def endo_sampler_lines(seed):
    rng = random.Random(seed)
    tensors = [endo_sampler(d)(rng) for d in (1, 2, 3)]
    tensors.append(random_tensor(rng, 2, [2, "a"], [None, 10]))
    return ["%s %d" % (endo.to_json(t), t.den) for t in tensors] + [repr(rng.random())]


def test_endo_sampler_golden():
    digest = hashlib.sha256()
    for seed in range(200):
        digest.update("".join(line + "\n" for line in endo_sampler_lines(seed)).encode())
    assert digest.hexdigest() == ENDO_SAMPLER_GOLDEN


# sha256 of the standard output of the evaluation commands: ten seeded `eval`
# calls (seeds 0..9) and `killing` on sl2 at d=3 for n = 2, 3, 4.  Axis order
# and entries come from how the graph evaluator contracts, so a change there
# shows.
EVAL_GOLDENS = {
    "eval": "876ebb96b64d4519a9bc4bfe3dd81c0a15b0639509d77ef3dfd01f0a956bd837",
    "killing": "ab2d4e0a07c5a2f1999b823a752d2dd3aeedcc2f85255590678f3a0d6d6ee230",
}


def eval_argv(rng, put):
    """Arguments for one seeded ``eval`` call: a random graph whose vertices
    carry generators with shuffled slots, bound to random arrays."""
    g = random_graph(rng)
    while len(g.lam) + len(g.exceptional) > 10:
        g = random_graph(rng)
    d = rng.randint(1, 3)

    def array(rank):
        if not rank:
            return str(random_fraction(rng))
        return [array(rank - 1) for _ in range(d)]

    decor, bind = [], {}
    for k in range(g.r):
        ins, outs = (sorted(side) for side in g.neighbourhood(k + 1))
        rng.shuffle(ins)
        rng.shuffle(outs)
        decor.append(["v%d" % k, ins, outs])
        bind["v%d" % k] = array(len(ins) + len(outs))
    return ["eval", "--dim", str(d),
            put(json.dumps({"graph": graphs.to_obj(g), "decor": decor})),
            put(json.dumps(bind))]


@pytest.mark.parametrize("cmd", list(EVAL_GOLDENS))
def test_evaluation_command_goldens(cmd, tmp_path, capsys):
    paths = itertools.count()

    def put(text):
        path = tmp_path / ("%d.json" % next(paths))
        path.write_text(text)
        return str(path)

    if cmd == "eval":
        calls = [eval_argv(random.Random(seed), put) for seed in range(10)]
    else:
        sl2 = put(json.dumps([[[str(x) for x in row] for row in plane]
                              for plane in lie.sl2_bracket()]))
        calls = [["killing", "--bracket", sl2, "--n", str(n)]
                 for n in (2, 3, 4)]
    digest = hashlib.sha256()
    for argv in calls:
        assert cli.main(argv) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == EVAL_GOLDENS[cmd]


# sha256 of the exit status and standard output of the commands whose numbers
# come from the tensor prop's arithmetic: `axioms --impl endo` at d = 1, 2, 3,
# `semisimple` on the sl2 and solvable brackets, and `killing` on sl2 for
# n = 5..8.  A change in how tensors store or combine their entries shows here.
TENSOR_GOLDENS = {
    "axioms": "0011d3e00646f51a30bef1cffa5a15a4f7fe63b90733f674f28a8c16a3f8591a",
    "semisimple": "be16ad885685dc0320b87f8a3d27702ffecbab5ca8d89277e57b9a08173aa500",
    "killing": "41be2ff65557b369f3abb122029ba4caee5666f191be822ba2340e7af52f620f",
}


def tensor_calls(cmd, put):
    """The calls of ``cmd`` pinned in ``TENSOR_GOLDENS``; ``put`` writes a
    bracket to a file and returns its path."""
    if cmd == "axioms":
        return [["axioms", "--impl", "endo", "--dim", str(d), "--trials", "12",
                 "--seed", str(d)] for d in (1, 2, 3)]
    sl2 = put(lie.sl2_bracket())
    if cmd == "semisimple":
        return [["semisimple", "--bracket", b]
                for b in (sl2, put(lie.solvable2_bracket()))]
    return [["killing", "--bracket", sl2, "--n", str(n)] for n in range(5, 9)]


@pytest.mark.parametrize("cmd", list(TENSOR_GOLDENS))
def test_tensor_command_goldens(cmd, tmp_path, capsys):
    paths = itertools.count()

    def put(bracket):
        path = tmp_path / ("%d.json" % next(paths))
        path.write_text(json.dumps([[[str(x) for x in row] for row in plane]
                                    for plane in bracket]))
        return str(path)

    digest = hashlib.sha256()
    for argv in tensor_calls(cmd, put):
        rc = cli.main(argv)
        digest.update(b"%d\n" % rc + capsys.readouterr().out.encode())
    assert digest.hexdigest() == TENSOR_GOLDENS[cmd]


def test_parser_reused_across_calls(capsys):
    assert cli.main(["lie-dim", "3"]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["compose"])
    assert exc.value.code == 2
    assert cli.main(["trace-dim", "1"]) == 0
    out = capsys.readouterr().out
    assert out == CLI_GOLDENS[("lie-dim", "3")] + CLI_GOLDENS[("trace-dim", "1")]


def test_killing_and_semisimple(tmp_path):
    B = lie.sl2_bracket()
    (tmp_path / "sl2.json").write_text(json.dumps(
        [[[str(x) for x in row] for row in plane] for plane in B]))
    rc, out, _ = run(["killing", "--bracket", str(tmp_path / "sl2.json"),
                      "--n", "2"])
    assert rc == 0
    from wirecat import endo
    t = endo.from_json(out)
    pos_h = [0, 0]
    pos_h[t.axis_pos(("in", "x1"))] = 2
    pos_h[t.axis_pos(("in", "x2"))] = 2
    assert t.data[tuple(pos_h)] == 8

    rc, out, _ = run(["semisimple", "--bracket", str(tmp_path / "sl2.json")])
    assert rc == 0 and json.loads(out)["ok"]

    (tmp_path / "zero.json").write_text(json.dumps(
        [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]))
    rc, out, _ = run(["semisimple", "--bracket", str(tmp_path / "zero.json")])
    assert rc == 1 and not json.loads(out)["ok"]


def test_export_dot(wd_json):
    rc, graph_out, _ = run(["to-graph", "-"], inp=wd_json)
    rc, dot, _ = run(["export-dot", "-"], inp=graph_out)
    assert rc == 0 and dot.startswith("digraph")


def test_export_dot_escapes_labels(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        '{"vertices": [[0]], "delta": [[0, 1]], "lambda": [[0, "x"]], '
        '"beta": [[0, "a\\"b"]]}'))
    assert cli.main(["export-dot", "-"]) == 0
    assert '  b1 [shape=none, label="a\\"b"];' in capsys.readouterr().out.splitlines()
