"""The benchmark's four workloads.

Each workload has three steps:

- ``setup(wc, rng, workdir)`` generates the seeded inputs, mostly through
  ``wirecat.sampling``.  It is timed as set-up.
- ``reference(wc, state)`` computes, once per run and untimed, the values
  that the output checks compare against.
- ``tasks(wc, state, refs, count)`` returns the fixed task list of one round.
  Each task's ``call`` is the timed call into wirecat; its ``check`` returns
  ``None`` when the output is right, or a one-line reason when it is not.

``wc`` is a namespace holding the wirecat modules of the current round.
Sizes are fixed per workload and only the content is drawn from the seed, so
that two seeds cost about the same: the run-to-run spread of a median then
comes from the machine, not from the draw.
"""
from __future__ import annotations

import io
import json
import os
import random
import sys
from fractions import Fraction

import numpy as np

import oracle


class Task:
    """One timed call.  ``fails_today`` names the failure a known fault causes."""

    __slots__ = ("label", "call", "check", "fails_today")

    def __init__(self, label, call, check, fails_today=None):
        self.label = label
        self.call = call
        self.check = check
        self.fails_today = fails_today


def _exactly(make, ok):
    """Draw from ``make`` until ``ok`` holds: fixes a size the sampler varies."""
    while True:
        x = make()
        if ok(x):
            return x


def _seed(rng):
    return rng.randrange(2 ** 32)


# -- free-prop ------------------------------------------------------------------

FREE_ARITIES = {"f": (2, 1), "g": (1, 2)}


def symmetric_cycle(wc, n, rng=None):
    """The directed n-cycle of identical vertices (in-leg ``a``, out-leg ``b``).

    With ``rng`` the vertex order is shuffled and the flags get random names;
    the loose canonical key must not notice either.
    """
    flags = list(range(2 * n)) if rng is None else rng.sample(range(10 * n), 2 * n)
    position = list(range(n))
    if rng is not None:
        rng.shuffle(position)
    vertices = [None] * n
    delta, lam, iota = {}, {}, {}
    for k in range(n):
        a, b = flags[2 * k], flags[2 * k + 1]
        vertices[position[k]] = [a, b]
        delta[a], lam[a] = 1, "a"
        delta[b], lam[b] = -1, "b"
    for k in range(n):
        b, a = flags[2 * k + 1], flags[2 * ((k + 1) % n)]
        iota[a], iota[b] = b, a
    return wc.graphs.DirectedGraph(vertices, (), iota, {}, delta, lam, {}, 0)


class FreeProp:
    """Free wheeled prop on {f:(2,1), g:(1,2)}: term keying and validation.

    Median kind: 48 flatten monad-law tasks, each on two nestings of a
    3-vertex graph whose vertices hold 2-vertex graphs whose vertices hold
    one-term elements.  Also 8 free axiom-suite tasks of 10 trials, and
    ``loose_canonical_form`` on symmetric n-cycles, n = 3..9.
    """

    name = "free-prop"
    FLATTEN_TASKS = 48
    NESTINGS_PER_TASK = 2
    AXIOM_TASKS = 8
    AXIOM_TRIALS = 10
    CYCLES = range(3, 10)

    def setup(self, wc, rng, workdir):
        S = wc.sampling
        nestings = []
        for _ in range(self.FLATTEN_TASKS * self.NESTINGS_PER_TASK):
            g = _exactly(lambda: S.random_graph_with_boundary(
                rng, ["p0"], ["q0"], max_vertices=3), lambda x: x.r == 3)
            mids, inners = {}, {}
            for v in range(1, g.r + 1):
                ins, outs = g.neighbourhood(v)
                mids[v] = _exactly(lambda: S.random_graph_with_boundary(
                    rng, sorted(ins), sorted(outs), max_vertices=2),
                    lambda x: x.r == 2)
                inners[v] = []
                for w in range(1, mids[v].r + 1):
                    mins, mouts = mids[v].neighbourhood(w)
                    inners[v].append(S.random_decorated_element(
                        rng, sorted(mins), sorted(mouts), max_vertices=2,
                        max_terms=1))
            nestings.append((g, mids, inners))
        sig = wc.wprop.Signature(FREE_ARITIES)
        return {
            "nestings": nestings,
            "sig": sig,
            "axiom_seeds": [_seed(rng) for _ in range(self.AXIOM_TASKS)],
            "cycles": {n: symmetric_cycle(wc, n, rng) for n in self.CYCLES},
        }

    def reference(self, wc, state):
        keys = {}
        for n in self.CYCLES:
            try:
                keys[n] = wc.graphs.loose_canonical_form(symmetric_cycle(wc, n))
            except wc.errors.WirecatError as exc:
                keys[n] = type(exc).__name__
        return keys

    def tasks(self, wc, state, refs, count):
        wprop, graphs = wc.wprop, wc.graphs
        per = self.NESTINGS_PER_TASK
        out = []
        for t in range(self.FLATTEN_TASKS):
            batch = state["nestings"][t * per:(t + 1) * per]

            def call(batch=batch):
                res = []
                for g, mids, inners in batch:
                    lhs = wprop.flatten(g, [wprop.flatten(mids[v], inners[v])
                                            for v in range(1, g.r + 1)])
                    rhs = wprop.flatten(
                        graphs.substitute_all(g, mids),
                        [e for v in range(1, g.r + 1) for e in inners[v]])
                    e = inners[1][0]
                    unit = wprop.flatten(graphs.corolla(*e.boundary()), [e])
                    res.append((lhs, rhs, unit, e))
                return res

            def check(res):
                for lhs, rhs, unit, e in res:
                    if lhs != rhs:
                        return "flatten is not associative on a nesting"
                    if unit != e:
                        return "corolla is not a unit for flatten"

            out.append(Task("flatten%d" % t, call, check))

        for k, seed in enumerate(state["axiom_seeds"]):
            def call(seed=seed):
                sig = state["sig"]
                return wprop.axiom_suite(wprop.FreeWheeledProp(sig),
                                         wc.sampling.free_sampler(sig),
                                         trials=self.AXIOM_TRIALS,
                                         rng=random.Random(seed))

            out.append(Task("axioms%d" % k, call,
                            lambda rep: _axiom_report_problem(rep, self.AXIOM_TRIALS)))

        for n in self.CYCLES:
            g = state["cycles"][n]

            def check(key, n=n):
                if key != refs[n]:
                    return "loose key of the %d-cycle changed under relabelling" % n

            out.append(Task("cycle%d" % n,
                            lambda g=g: graphs.loose_canonical_form(g), check,
                            "TooManyVertices" if n > 8 else None))
        return out


def _axiom_report_problem(report, trials):
    for name in ("H1", "H2", "H3", "H4", "C1", "C2", "HC1", "HC2"):
        entry = report[name]
        if not entry["ok"]:
            return "axiom %s fails: %s" % (name, entry["witness"])
        if entry["trials"] != trials:
            return "axiom %s ran %d of %d trials" % (name, entry["trials"], trials)
    if report["ok"] is not True:
        return "suite reports not ok"


# -- tensor-eval ----------------------------------------------------------------

def sl2():
    """Structure constants of sl2 on (e, f, h): [e,f]=h, [h,e]=2e, [h,f]=-2f."""
    B = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    e, f, h = 0, 1, 2
    for i, j, k, c in ((e, f, h, 1), (h, e, e, 2), (h, f, f, -2)):
        B[i][j][k] = Fraction(c)
        B[j][i][k] = Fraction(-c)
    return B


class TensorEval:
    """Tensor wheeled prop over Q^d: outer products and diagonal sums.

    Median kind: 48 endo axiom-suite tasks at d=2, 20 trials each.  Also
    ``killing_eval(sl2, n, 3)`` for n = 2..9, one endo suite at d=3, and four
    tasks of 8 ``wd_action`` calls at d=3 checked against ``evaluate_graph``.

    The d=3 suite runs on a fixed seed, the CLI's default 0: its cost swings
    sevenfold with the seed (0.14 s to 1.05 s over seeds 0..7, 20 trials), as
    some draws multiply three 4-axis tensors, and it would swamp ``solve_s``.
    """

    name = "tensor-eval"
    KILLING = range(2, 10)
    ENDO_TASKS = 48
    ENDO_TRIALS = 20
    WD_TASKS = 4
    WD_PER_TASK = 8
    WD_DIM = 3
    D3_SEED = 0

    def setup(self, wc, rng, workdir):
        S = wc.sampling
        groups = []
        for _ in range(self.WD_TASKS):
            group = []
            for _ in range(self.WD_PER_TASK):
                # At most 8 box axes keeps every intermediate under 3^10 entries.
                d = _exactly(lambda: S.random_wiring_diagram(
                    rng, max_boxes=3, max_labels=2, max_circles=2),
                    lambda x: x.r >= 2 and sum(
                        len(b.in_labels) + len(b.out_labels) for b in x.inputs) <= 8)
                args = [S.random_tensor(rng, self.WD_DIM, sorted(b.in_labels),
                                        sorted(b.out_labels)) for b in d.inputs]
                group.append((d, args))
            groups.append(group)
        return {
            "bracket": sl2(),
            "endo_seeds": [_seed(rng) for _ in range(self.ENDO_TASKS)],
            "wd_groups": groups,
        }

    def reference(self, wc, state):
        tables = {}

        def table(n):
            if n not in tables:
                tables[n] = oracle.killing_table(state["bracket"], n)
            return tables[n]

        for n in self.KILLING:
            if n <= 8:  # n = 9 fails today; its table is made if it succeeds
                table(n)
        return table

    def tasks(self, wc, state, refs, count):
        wprop, endo, lie = wc.wprop, wc.endo, wc.lie
        out = []
        for n in self.KILLING:
            def check(t, n=n):
                return _killing_problem(t, n, refs(n))

            out.append(Task("killing%d" % n,
                            lambda n=n: lie.killing_eval(state["bracket"], n, 3),
                            check, "SizeCapExceeded" if n > 8 else None))

        def suite(d, seed):
            return wprop.axiom_suite(wprop.EndoWheeledProp(d),
                                     wc.sampling.endo_sampler(d),
                                     trials=self.ENDO_TRIALS,
                                     rng=random.Random(seed))

        def suite_check(rep):
            return _axiom_report_problem(rep, self.ENDO_TRIALS)

        for k, seed in enumerate(state["endo_seeds"]):
            out.append(Task("endo2.%d" % k, lambda seed=seed: suite(2, seed),
                            suite_check))
        out.append(Task("endo3", lambda: suite(3, self.D3_SEED), suite_check))

        w = wprop.EndoWheeledProp(self.WD_DIM)
        for k, group in enumerate(state["wd_groups"]):
            def call(group=group):
                return [wprop.wd_action(w, d, args) for d, args in group]

            def check(results, group=group):
                for (d, args), got in zip(group, results):
                    want = endo.evaluate_graph(wc.translate.wd_to_graph(d), args,
                                               self.WD_DIM)
                    if got != want:
                        return "wd_action differs from evaluate_graph"

            out.append(Task("wd_action%d" % k, call, check))
        return out


def _killing_problem(t, n, table):
    axes = [("in", "x%d" % k) for k in range(1, n + 1)]
    if sorted(t.axes) != sorted(axes):
        return "killing form %d has axes %r" % (n, t.axes)
    data = np.transpose(t.data, [t.axes.index(a) for a in axes])
    for idx, want in table.items():
        if data[idx] != want:
            return "killing form %d entry %r is %s, not %s" % (n, idx, data[idx], want)


# -- lie-spaces -------------------------------------------------------------------

class LieSpaces:
    """Exact sparse elimination and Fraction arithmetic in ``lie``.

    Median kind: 96 ``TraceSpace(4, extra_instances=k, rng)`` tasks.  Also
    ``lie_dim(n)`` for n = 2..6, ``TraceSpace(n)`` for n = 0..5 and
    ``wheeled_dim(n, m)`` for n <= 6, 0 <= m <= n, without (6, 0), which
    would need ``TraceSpace(6)``.  Every round imports wirecat afresh, so the
    process-wide caches of ``lie`` start empty, as they do for a CLI user.
    """

    name = "lie-spaces"
    LIE_DIM = range(2, 7)
    TRACE = range(0, 6)
    WHEELED = [(n, m) for n in range(1, 7) for m in range(0, n + 1)
               if (n, m) != (6, 0)]
    TS4_TASKS = 96

    def setup(self, wc, rng, workdir):
        return {"ts4": [(4 + k % 4, _seed(rng)) for k in range(self.TS4_TASKS)]}

    def reference(self, wc, state):
        return None

    def tasks(self, wc, state, refs, count):
        lie = wc.lie
        out = []
        for n in self.LIE_DIM:
            out.append(Task("lie_dim%d" % n, lambda n=n: lie.lie_dim(n),
                            lambda got, n=n: None if got == oracle.lie_dim(n)
                            else "lie_dim(%d) = %d" % (n, got)))
        plain = {}
        for n in self.TRACE:
            def check(ts, n=n):
                plain[n] = list(ts.basis)
                if ts.dim != oracle.trace_dim(n) or len(ts.basis) != ts.dim:
                    return "TraceSpace(%d).dim = %d" % (n, ts.dim)

            out.append(Task("trace%d" % n, lambda n=n: lie.TraceSpace(n), check))
        for n, m in self.WHEELED:
            out.append(Task("wheeled%d,%d" % (n, m),
                            lambda n=n, m=m: lie.wheeled_dim(n, m),
                            lambda got, n=n, m=m: None
                            if got == oracle.wheeled_dim(n, m)
                            else "wheeled_dim(%d, %d) = %d" % (n, m, got)))
        for k, (extra, seed) in enumerate(state["ts4"]):
            def check(ts):
                if list(ts.basis) != plain[4]:
                    return "TraceSpace(4) basis moved with extra relations"

            out.append(Task("ts4.%d" % k,
                            lambda extra=extra, seed=seed: lie.TraceSpace(
                                4, extra_instances=extra, rng=random.Random(seed)),
                            check))
        return out


# -- diagram-cli ----------------------------------------------------------------

def write_input(path, text):
    """Write an input file, unless it already holds ``text``.

    Truncating a file frees its blocks, which costs tens of milliseconds on a
    filesystem mounted with ``discard``: rewriting the same inputs in every
    set-up would time the disk, not wirecat.
    """
    try:
        with open(path) as fh:
            if fh.read() == text:
                return
    except FileNotFoundError:
        pass
    with open(path, "w") as fh:
        fh.write(text)


class Cli:
    """``cli.main(argv)`` with stdin, stdout and stderr swapped for buffers.

    ``sizes`` maps input paths to their lengths, for ``cli.bytes_in``.
    """

    def __init__(self, wc, count, sizes):
        self.wc = wc
        self.count = count
        self.sizes = sizes

    def __call__(self, argv, stdin=""):
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = (io.StringIO(stdin), io.StringIO(),
                                             io.StringIO())
        try:
            rc = self.wc.cli.main(argv)
            out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        self.count("cli.bytes_in", len(stdin) + sum(self.sizes.get(a, 0) for a in argv))
        self.count("cli.bytes_out", len(out))
        return rc, out, err


def named_error(wc, rc, err):
    """None if the CLI exited 1 naming a WirecatError, else the reason."""
    if rc == 1:
        try:
            name = json.loads(err)["error"]
        except (ValueError, KeyError, TypeError):
            name = None
        cls = getattr(wc.errors, str(name), None)
        if isinstance(cls, type) and issubclass(cls, wc.errors.WirecatError):
            return None
    return "exit %d without a named error" % rc


#: Malformed inputs, each of which must end in a named WirecatError.
MALFORMED = (
    ("graph", '{"vertices": 5}', "TypeError"),
    ("graph", "[]", "AttributeError"),
    ("graph", '{"vertices": [[[1]]]}', "TypeError"),
    ("tensor", '{"dim": -1, "axes": [], "data": ["1"]}',
     "exit 0 without a named error"),
)


class DiagramCli:
    """CLI pipelines over wiring diagrams and graphs, run in-process.

    Median kind: 48 pipelines, each on one seeded pair (outer diagram of
    20..24 boxes, inner diagram for one of its boxes): validate, compose,
    to-graph, substitute, to-wd and validate again.  Also four malformed
    inputs to ``validate``.
    """

    name = "diagram-cli"
    PIPELINES = 48

    def setup(self, wc, rng, workdir):
        S, wiring, graphs = wc.sampling, wc.wiring, wc.graphs
        os.makedirs(workdir, exist_ok=True)
        pairs, sizes = [], {}
        for k in range(self.PIPELINES):
            outer = _exactly(lambda: S.random_wiring_diagram(
                rng, max_boxes=24, max_labels=4), lambda x: x.r >= 20)
            at = rng.randint(1, outer.r)
            inner = S.random_diagram_into(rng, outer, at, max_boxes=6)
            texts = (wiring.to_json(outer), wiring.to_json(inner),
                     graphs.to_json(wc.translate.wd_to_graph(inner)))
            paths = [os.path.join(workdir, "%s%d.json" % (kind, k))
                     for kind in ("outer", "inner", "inner-graph")]
            for path, text in zip(paths, texts):
                write_input(path, text)
                sizes[path] = len(text)
            pairs.append((outer, at, inner, paths))
        return {"pairs": pairs, "sizes": sizes}

    def reference(self, wc, state):
        return None

    def tasks(self, wc, state, refs, count):
        wiring, graphs, translate = wc.wiring, wc.graphs, wc.translate
        cli = Cli(wc, count, state["sizes"])
        out = []
        for k, (outer, at, inner, (p_outer, p_inner, p_inner_graph)) in \
                enumerate(state["pairs"]):
            def call(at=at, p_outer=p_outer, p_inner=p_inner,
                     p_inner_graph=p_inner_graph):
                v1 = cli(["validate", "--type", "wd", p_outer])
                comp = cli(["compose", "--at", str(at), p_outer, p_inner])
                g = cli(["to-graph", p_outer])
                sub = cli(["substitute", "--at", str(at), "-", p_inner_graph], g[1])
                back = cli(["to-wd", "-"], sub[1])
                v2 = cli(["validate", "--type", "graph", "-"], sub[1])
                return v1, comp, g, sub, back, v2

            def check(res, outer=outer, at=at, inner=inner):
                v1, comp, g, sub, back, v2 = res
                for rc, _, err in res:
                    if rc != 0:
                        return "a pipeline step exited %d: %s" % (rc, err.strip())
                if v1[1] != '{"ok":true,"type":"wd"}\n' or \
                        v2[1] != '{"ok":true,"type":"graph"}\n':
                    return "validate printed something else"
                composite = outer.compose(at, inner)
                if wiring.from_json(comp[1]) != composite:
                    return "CLI compose differs from the library"
                if translate.graph_to_wd(graphs.from_json(g[1])) != outer:
                    return "to-graph does not round-trip"
                if not graphs.is_isomorphic_strict(
                        graphs.from_json(sub[1]), translate.wd_to_graph(composite)):
                    return "substitution and composition are not intertwined"
                if wiring.from_json(back[1]) != composite:
                    return "to-wd of the substituted graph is not the composite"

            out.append(Task("pipeline%d" % k, call, check))

        for k, (kind, text, today) in enumerate(MALFORMED):
            out.append(Task("malformed%d" % k,
                            lambda kind=kind, text=text: cli(
                                ["validate", "--type", kind, "-"], text),
                            lambda res: named_error(wc, res[0], res[2]), today))
        return out


WORKLOADS = {w.name: w for w in (FreeProp, TensorEval, LieSpaces, DiagramCli)}
