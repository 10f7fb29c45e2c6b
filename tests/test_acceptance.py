"""End-to-end acceptance checks, one criterion per test.

Each test prints a single PASS/FAIL line on the live terminal (bypassing
capture) so a full run yields an eight-line report.
"""
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from wirecat import endo, graphs, lie, wiring, wprop
from wirecat.graphs import canonical_form, is_isomorphic_strict, substitute
from wirecat.sampling import (
    endo_sampler,
    free_sampler,
    random_composable_pair,
    random_composable_triple,
    random_decorated_element,
    random_graph,
    random_graph_with_boundary,
    random_tensor,
    random_wiring_diagram,
)
from wirecat.translate import graph_to_wd, wd_to_graph
from wirecat.wiring import identity_diagram
from wirecat.wprop import (
    EndoWheeledProp,
    FreeWheeledProp,
    Signature,
    axiom_suite,
    flatten,
    wd_action,
)


def announce(capsys, number, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print("CRITERION %d: FAIL — %s" % (number, label))
        raise
    with capsys.disabled():
        print("CRITERION %d: PASS — %s" % (number, label))


def test_criterion_1_operad_laws(capsys):
    def body():
        rng = random.Random(101)
        start = time.monotonic()
        for _ in range(500):
            shape, d, i, d2, j, e = random_composable_triple(rng)
            if shape == "nested":
                assert d.compose(i, d2.compose(j, e)) == \
                    d.compose(i, d2).compose(i - 1 + j, e)
            else:
                assert d.compose(i, d2).compose(j + d2.r - 1, e) == \
                    d.compose(j, e).compose(i, d2)
        for _ in range(100):
            d = random_wiring_diagram(rng)
            ident = identity_diagram(d.output.out_labels, d.output.in_labels)
            assert ident.compose(1, d) == d
            if d.r:
                i = rng.randint(1, d.r)
                box = d.inputs[i - 1]
                assert d.compose(
                    i, identity_diagram(box.in_labels, box.out_labels)) == d
        for _ in range(100):
            d, i, inner = random_composable_pair(rng)
            perm = list(range(1, d.r + 1))
            rng.shuffle(perm)
            sigma = {k + 1: perm[k] for k in range(d.r)}
            moved = wiring.renumber_inputs(d, sigma)
            comp = d.compose(i, inner)
            s, i2 = inner.r, sigma[i]
            tau = {}
            for k in range(1, d.r + 1):
                if k != i:
                    tau[k if k < i else k + s - 1] = \
                        sigma[k] if sigma[k] < i2 else sigma[k] + s - 1
            for off in range(s):
                tau[i + off] = i2 + off
            assert wiring.renumber_inputs(comp, tau) == \
                moved.compose(i2, inner)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, "operad laws took %.2fs" % elapsed

    announce(capsys, 1, "operad laws on 500 composable triples "
             "(+ units, equivariance) under 10s", body)


def test_criterion_2_monad_laws(capsys):
    def body():
        rng = random.Random(102)
        for _ in range(200):
            g = random_graph_with_boundary(rng, ["p0"], ["q0"], max_vertices=3)
            mids, inners = {}, {}
            for v in range(1, g.r + 1):
                ins, outs = g.neighbourhood(v)
                mids[v] = random_graph_with_boundary(
                    rng, sorted(ins), sorted(outs), max_vertices=3)
                inners[v] = []
                for w in range(1, mids[v].r + 1):
                    mins, mouts = mids[v].neighbourhood(w)
                    inners[v].append(random_decorated_element(
                        rng, sorted(mins), sorted(mouts), max_vertices=2))
            lhs = flatten(g, [flatten(mids[v], inners[v])
                              for v in range(1, g.r + 1)])
            rhs = flatten(graphs.substitute_all(g, mids),
                          [e for v in range(1, g.r + 1) for e in inners[v]])
            assert lhs == rhs
            # unit laws on one of the sampled elements
            if inners.get(1):
                e = inners[1][0]
                ins, outs = e.boundary()
                assert flatten(graphs.corolla(ins, outs), [e]) == e

    announce(capsys, 2, "substitution monad laws on 200 two-level nestings",
             body)


def test_criterion_3_translation(capsys):
    def body():
        rng = random.Random(103)
        for _ in range(1000):
            d = random_wiring_diagram(rng)
            assert graph_to_wd(wd_to_graph(d)) == d
        for _ in range(1000):
            g = random_graph(rng)
            assert canonical_form(wd_to_graph(graph_to_wd(g))) == \
                canonical_form(g)
        for _ in range(500):
            d, i, inner = random_composable_pair(rng)
            assert is_isomorphic_strict(
                wd_to_graph(d.compose(i, inner)),
                substitute(wd_to_graph(d), i, wd_to_graph(inner)))

    announce(capsys, 3, "translation roundtrips (1000+1000) and "
             "composition/substitution intertwining (500)", body)


def _random_args_for(rng, d, diagram):
    args = []
    for box in diagram.inputs:
        args.append(random_tensor(rng, d, sorted(box.in_labels),
                                  sorted(box.out_labels)))
    return args


def test_criterion_4_diagram_action(capsys):
    def body():
        # The state sum shares no code with either evaluator.
        from test_endo import state_sum
        rng = random.Random(104)
        d = 2
        w = EndoWheeledProp(d, cap_power=20)
        for _ in range(200):
            diagram = random_wiring_diagram(rng, max_boxes=3, max_labels=2,
                                            max_circles=2)
            args = _random_args_for(rng, d, diagram)
            via_action = wd_action(w, diagram, args)
            direct = endo.evaluate_graph(wd_to_graph(diagram), args, d,
                                         cap_power=20)
            assert via_action == direct
            assert via_action == state_sum(wd_to_graph(diagram), args, d)
        for _ in range(60):
            while True:
                outer = random_wiring_diagram(rng, max_boxes=2, max_labels=2,
                                              max_circles=1)
                if outer.r:
                    break
            i = rng.randint(1, outer.r)
            box = outer.inputs[i - 1]
            from wirecat.sampling import random_diagram_with_output
            inner = random_diagram_with_output(rng, box.in_labels,
                                               box.out_labels, max_boxes=2,
                                               max_labels=2, max_circles=1)
            outer_args = _random_args_for(rng, d, outer)
            inner_args = _random_args_for(rng, d, inner)
            # Action of the composite = plugging the inner action result
            # into slot i of the outer action.
            filled = wd_action(w, inner, inner_args)
            lhs = wd_action(w, outer.compose(i, inner),
                            outer_args[:i - 1] + inner_args + outer_args[i:])
            rhs = wd_action(w, outer,
                            outer_args[:i - 1] + [filled] + outer_args[i:])
            assert lhs == rhs
            assert lhs == state_sum(wd_to_graph(outer.compose(i, inner)),
                                    outer_args[:i - 1] + inner_args
                                    + outer_args[i:], d)

    announce(capsys, 4, "diagram action agrees with graph evaluation and "
             "a state sum (200) and with composition (60) at d=2", body)


def test_criterion_5_axiom_suite(capsys):
    def body():
        from test_wprop import BrokenEndo
        sig = Signature({"f": (2, 1), "g": (1, 2)})
        report = axiom_suite(FreeWheeledProp(sig), free_sampler(sig),
                             trials=200, rng=random.Random(105))
        assert report["ok"], report
        for d in (1, 2, 3):
            report = axiom_suite(EndoWheeledProp(d), endo_sampler(d),
                                 trials=200, rng=random.Random(105 + d))
            assert report["ok"], report
        broken = axiom_suite(BrokenEndo(2), endo_sampler(2), trials=200,
                             rng=random.Random(109))
        assert not broken["ok"]
        assert any(isinstance(v, dict) and not v["ok"] and v["witness"]
                   for v in broken.values() if isinstance(v, dict))

    announce(capsys, 5, "eight wheeled-prop axioms on free and tensor "
             "implementations (200 trials), broken mutant caught", body)


def test_criterion_6_tensor_numerics(capsys):
    def body():
        for d in range(1, 5):
            t = endo.trace_contract(endo.identity_tensor("l", d), "l", "l")
            assert t.scalar_value() == d
        rng = random.Random(106)

        def rmat(d):
            return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                     for _ in range(d)] for _ in range(d)]

        def as_tensor(M, d, i, o):
            data = [[M[b][a] for b in range(d)] for a in range(d)]
            return endo.Tensor(d, [(wiring.IN, i), (wiring.OUT, o)], data)

        def mul(A, B, d):
            return [[sum(A[i][k] * B[k][j] for k in range(d))
                     for j in range(d)] for i in range(d)]

        for d in (2, 3):
            w = EndoWheeledProp(d)
            for _ in range(50):
                A, B = rmat(d), rmat(d)
                got = w.dioperadic(as_tensor(A, d, "x", "y"), "x",
                                   as_tensor(B, d, "u", "v"), "v")
                assert got == as_tensor(mul(A, B, d), d, "u", "y")
        for _ in range(100):
            d = rng.choice([2, 3])
            A, B = rmat(d), rmat(d)
            tab = as_tensor(mul(A, B, d), d, "x", "y")
            tba = as_tensor(mul(B, A, d), d, "x", "y")
            assert endo.trace_contract(tab, "x", "y") == \
                endo.trace_contract(tba, "x", "y")

    announce(capsys, 6, "tensor numerics: trace of identity, dioperadic = "
             "matrix product, cyclic trace (100)", body)


def test_criterion_7_lie_example(capsys):
    def body():
        # two independent methods: basis rewriting vs tree quotient
        from test_lie import ad_trace_kappa, tree_quotient_dim
        fact = 1
        for n in range(2, 6):
            fact *= n - 1
            assert lie.lie_dim(n) == fact
            assert tree_quotient_dim(n) == fact
        for n in range(0, 4):
            base = lie.TraceSpace(n)
            more = lie.TraceSpace(n, extra_instances=40,
                                  rng=random.Random(107))
            assert base.dim == more.dim and base.basis == more.basis
        B = lie.sl2_bracket()
        K = lie.kappa_matrix(B, 3)
        e, f, h = 0, 1, 2
        assert K[h][h] == 8 and K[e][f] == 4
        for i in range(3):
            for j in range(3):
                assert K[i][j] == ad_trace_kappa(B, 3, (i, j))
        assert lie.semisimple_witness(B, 3)["ok"]
        assert not lie.semisimple_witness(lie.zero_bracket(2), 2)["nondegenerate"]
        assert not lie.semisimple_witness(lie.solvable2_bracket(), 2)["nondegenerate"]

    announce(capsys, 7, "Lie dimensions by two methods, stable trace spaces, "
             "sl2 Killing values, semisimplicity witness", body)


def test_criterion_8_cli_contract(capsys, tmp_path):
    def body():
        def run(args, inp=None):
            r = subprocess.run([sys.executable, "-m", "wirecat.cli"]
                               + list(args), capture_output=True, text=True,
                               input=inp)
            return r.returncode, r.stdout

        rng = random.Random(108)
        for _ in range(5):
            d = random_wiring_diagram(rng)
            rc, graph_out = run(["to-graph", "-"], inp=wiring.to_json(d))
            assert rc == 0
            rc, wd_back = run(["to-wd", "-"], inp=graph_out)
            assert rc == 0
            assert wiring.from_json(wd_back) == d
            rc, graph_back = run(["to-graph", "-"], inp=wd_back)
            assert canonical_form(graphs.from_json(graph_back)) == \
                canonical_form(graphs.from_json(graph_out))
        args = ["axioms", "--impl", "endo", "--dim", "2", "--trials", "10",
                "--seed", "3"]
        rc1, out1 = run(args)
        rc2, out2 = run(args)
        assert rc1 == rc2 == 0 and out1 == out2
        assert json.loads(out1)["ok"]

    announce(capsys, 8, "CLI roundtrip pipelines and byte-identical "
             "fixed-seed runs", body)
