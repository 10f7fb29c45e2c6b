import hashlib
import io
import itertools
import json
import random
import subprocess
import sys

import pytest

from wirecat import cli, errors, graphs, lie, wiring, wprop
from wirecat.sampling import (
    random_composable_pair,
    random_decorated_element,
    random_fraction,
    random_graph,
    random_graph_with_boundary,
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
    ("element", '{"in": [], "out": [], "terms": [{"graph": {"loops": 1}, "coeff": "1/0"}]}'),
    ("element", '{"in": [], "out": [], "terms": [{"graph": {"loops": 1}, "coeff": 0.1}]}'),
])
def test_malformed_input_names_its_error(kind, text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert cli.main(["validate", "--type", kind, "-"]) == 1
    out, err = capsys.readouterr()
    assert not out
    name = json.loads(err)["error"]
    assert issubclass(getattr(errors, name), errors.WirecatError)


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


@pytest.mark.parametrize("eval_input, bindings", [
    ({}, None),
    ("two-item decoration", None),
    (None, []),
    (None, {}),
    (None, {"br": [[["1"]], [["1", "2"]]]}),
])
def test_eval_input_shape_names_its_error(eval_input, bindings, tmp_path, capsys):
    [(_, g, decor)] = list(lie.kappa_element(2).terms.values())
    decor = [[sym, list(ins), list(outs)] for sym, ins, outs in decor]
    if eval_input == "two-item decoration":
        eval_input = {"graph": graphs.to_obj(g), "decor": [d[:2] for d in decor]}
    (tmp_path / "g.json").write_text(json.dumps(
        {"graph": graphs.to_obj(g), "decor": decor} if eval_input is None else eval_input))
    (tmp_path / "b.json").write_text(json.dumps(
        {"br": lie.sl2_bracket()} if bindings is None else bindings, default=str))
    assert cli.main(["eval", "--dim", "3", str(tmp_path / "g.json"),
                     str(tmp_path / "b.json")]) == 1
    out, err = capsys.readouterr()
    assert not out
    assert issubclass(getattr(errors, json.loads(err)["error"]), errors.WirecatError)


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
    (["--n", "2", "--d", "2"], "DimMismatch", ["2", "3"]),
    (["--n", "2", "--d", "4"], "DimMismatch", ["4", "3"]),
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
    assert cli.main(["killing", "--bracket", str(tmp_path / "sl2.json"),
                     "--n", "2", "--d", "3"]) == 0


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
}


@pytest.mark.parametrize("args", list(CLI_GOLDENS), ids="-".join)
def test_lie_and_trace_dim_goldens(args, capsys):
    assert cli.main(list(args)) == 0
    assert capsys.readouterr().out == CLI_GOLDENS[args]


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
