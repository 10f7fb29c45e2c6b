"""Command-line front end: parse, validate, compose, translate, evaluate.

All subcommands read and write JSON (DOT only as an export format), accept
``-`` for stdin/stdout, and produce byte-identical output for a fixed seed.
Exit codes: 0 success, 1 domain error (the message names the violated
invariant), 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import endo, graphs, lie, wiring, wprop
from .errors import ArityMismatch, InvalidGraph, InvalidTensor, WirecatError
from .sampling import endo_sampler, free_sampler
from .translate import graph_to_wd, wd_to_graph


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(text: str):
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _array(x, d: int, depth: int, name: str):
    """``x`` as ``depth`` nested lists of ``d`` exact rationals each.  An error
    names the entry at fault by ``name`` and its index path, as ``name[i][j]``."""
    if not depth:
        try:
            return endo.rational(x)
        except InvalidTensor as exc:
            raise InvalidTensor("%s: %s" % (name, exc)) from None
    if not (isinstance(x, list) and len(x) == d):
        raise InvalidTensor("%s: %.80r is no array of shape %r of rationals"
                            % (name, x, (d,) * depth))
    return [_array(y, d, depth - 1, "%s[%d]" % (name, k)) for k, y in enumerate(x)]


# -- subcommand handlers ------------------------------------------------------

_LOADERS = {
    "wd": wiring.from_json,
    "graph": graphs.from_json,
    "element": wprop.from_json,
    "tensor": endo.from_json,
}


def cmd_validate(args):
    _LOADERS[args.type](_read(args.file))
    _write(_dump({"ok": True, "type": args.type}))
    return 0


def cmd_compose(args):
    outer = wiring.from_json(_read(args.outer))
    inner = wiring.from_json(_read(args.inner))
    _write(wiring.to_json(outer.compose(args.at, inner)))
    return 0


def cmd_substitute(args):
    outer = graphs.from_json(_read(args.outer))
    inner = graphs.from_json(_read(args.inner))
    _write(graphs.to_json(graphs.substitute(outer, args.at, inner)))
    return 0


def cmd_to_graph(args):
    d = wiring.from_json(_read(args.file))
    _write(graphs.to_json(wd_to_graph(d)))
    return 0


def cmd_to_wd(args):
    g = graphs.from_json(_read(args.file))
    _write(wiring.to_json(graph_to_wd(g)))
    return 0


def cmd_flatten(args):
    outer = graphs.from_json(_read(args.outer))
    inner = [wprop.from_json(_read(p)) for p in args.inner]
    _write(wprop.to_json(wprop.flatten(outer, inner)))
    return 0


def cmd_compose_free(args):
    a = wprop.from_json(_read(args.left))
    b = wprop.from_json(_read(args.right))
    _write(wprop.to_json(wprop.dioperadic(a, args.at_in, b, args.at_out)))
    return 0


def cmd_axioms(args):
    if args.impl == "endo":
        w = wprop.EndoWheeledProp(args.dim)
        sampler = endo_sampler(args.dim)
    else:
        sig = wprop.Signature({"f": (2, 1), "g": (1, 2)})
        w = wprop.FreeWheeledProp(sig)
        sampler = free_sampler(sig)
    report = wprop.axiom_suite(w, sampler, trials=args.trials,
                               rng=random.Random(args.seed))
    _write(_dump(report))
    return 0 if report["ok"] else 1


_EVAL = {"graph": {}, "decor": wprop._DECOR}


def cmd_eval(args):
    obj = json.loads(_read(args.file))
    if not (wiring.all_fit([obj], _EVAL) and "graph" in obj):
        raise InvalidGraph(["NotAnEvalInput: %.80r does not fit {graph, decor: "
                            "[[symbol, in-labels, out-labels]]}" % (wiring.misfit(obj, _EVAL),)])
    g, decor = wprop.decorated_from_obj(obj)
    raw = json.loads(_read(args.bindings))
    if not wiring.all_fit([raw], {}):
        raise InvalidTensor("bindings are a %s, not a {symbol: nested array}" % type(raw).__name__)
    arity = {}
    for sym, ins, outs in decor:
        if arity.setdefault(sym, (len(ins), len(outs))) != (len(ins), len(outs)):
            raise ArityMismatch("generator %r has arity %r in one row and %r in another"
                                % (sym, arity[sym], (len(ins), len(outs))))
    if not set(arity) <= set(raw):
        raise ArityMismatch("no binding for generators %r"
                            % sorted(set(arity) - set(raw), key=repr))
    bind = {sym: _array(raw[sym], args.dim, n + m, "binding %r" % (sym,))
            for sym, (n, m) in arity.items()}
    _write(endo.to_json(endo.evaluate_decorated(g, decor, bind, args.dim)))
    return 0


def cmd_lie_dim(args):
    _write(_dump({"n": args.n, "dim": lie.lie_dim(args.n, args.bound)}))
    return 0


def cmd_trace_dim(args):
    ts = lie.TraceSpace(args.n, bound=args.bound)
    _write(_dump({"n": args.n, "dim": ts.dim,
                  "basis": [list(w) for w in ts.basis]}))
    return 0


def _load_bracket(path):
    """A bracket file's nested (d, d, d) list of exact rationals, and d."""
    raw = json.loads(_read(path))
    if not (isinstance(raw, list) and raw):
        raise InvalidTensor("bracket %.80r is no array of shape (d, d, d) of rationals" % (raw,))
    return _array(raw, len(raw), 3, "bracket"), len(raw)


def cmd_killing(args):
    bracket, d = _load_bracket(args.bracket)
    _write(endo.to_json(lie.killing_eval(bracket, args.n, d)))
    return 0


def cmd_semisimple(args):
    bracket, d = _load_bracket(args.bracket)
    report = lie.semisimple_witness(bracket, d)
    _write(_dump(report))
    return 0 if report["ok"] else 1


def cmd_export_dot(args):
    g = graphs.from_json(_read(args.file))
    _write(graphs.to_dot(g))
    return 0


# -- parser -------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wirecat")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("validate", help="parse a file and check its invariants")
    c.add_argument("--type", required=True, choices=sorted(_LOADERS))
    c.add_argument("file")
    c.set_defaults(fn=cmd_validate)

    c = sub.add_parser("compose", help="glue a wiring diagram into a box")
    c.add_argument("--at", type=int, required=True, help="input box (1-based)")
    c.add_argument("outer")
    c.add_argument("inner")
    c.set_defaults(fn=cmd_compose)

    c = sub.add_parser("substitute", help="substitute a graph into a vertex")
    c.add_argument("--at", type=int, required=True, help="vertex (1-based)")
    c.add_argument("outer")
    c.add_argument("inner")
    c.set_defaults(fn=cmd_substitute)

    c = sub.add_parser("to-graph", help="wiring diagram to graph")
    c.add_argument("file")
    c.set_defaults(fn=cmd_to_graph)

    c = sub.add_parser("to-wd", help="graph to wiring diagram")
    c.add_argument("file")
    c.set_defaults(fn=cmd_to_wd)

    c = sub.add_parser("flatten", help="substitute free elements into a graph")
    c.add_argument("outer", help="graph JSON")
    c.add_argument("inner", nargs="*", help="one element JSON per vertex")
    c.set_defaults(fn=cmd_flatten)

    c = sub.add_parser("compose-free",
                       help="dioperadic composition of two free elements")
    c.add_argument("--at-in", required=True, help="in-label of the left element")
    c.add_argument("--at-out", required=True, help="out-label of the right element")
    c.add_argument("left")
    c.add_argument("right")
    c.set_defaults(fn=cmd_compose_free)

    c = sub.add_parser("axioms", help="run the wheeled-prop axiom suite")
    c.add_argument("--impl", choices=["free", "endo"], default="free")
    c.add_argument("--dim", type=int, default=2)
    c.add_argument("--trials", type=int, default=50)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=cmd_axioms)

    c = sub.add_parser("eval", help="evaluate a decorated graph as a tensor")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("file", help='{"graph": ..., "decor": ...} JSON')
    c.add_argument("bindings", help="generator symbol -> nested rational array")
    c.set_defaults(fn=cmd_eval)

    c = sub.add_parser("lie-dim", help="dimension of the multilinear Lie space")
    c.add_argument("n", type=int)
    c.add_argument("--bound", type=int, default=None)
    c.set_defaults(fn=cmd_lie_dim)

    c = sub.add_parser("trace-dim", help="dimension of the trace-symbol space")
    c.add_argument("n", type=int)
    c.add_argument("--bound", type=int, default=None)
    c.set_defaults(fn=cmd_trace_dim)

    c = sub.add_parser("killing", help="evaluate a generalized Killing form")
    c.add_argument("--bracket", required=True,
                   help="nested (d,d,d) array of rationals")
    c.add_argument("--n", type=int, required=True)
    c.set_defaults(fn=cmd_killing)

    c = sub.add_parser("semisimple", help="semisimplicity certificate checks")
    c.add_argument("--bracket", required=True)
    c.set_defaults(fn=cmd_semisimple)

    c = sub.add_parser("export-dot", help="render a graph as GraphViz DOT")
    c.add_argument("file")
    c.set_defaults(fn=cmd_export_dot)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (WirecatError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        sys.stderr.write(_dump({"error": type(exc).__name__,
                                "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
