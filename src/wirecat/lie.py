"""Multilinear free-Lie normal forms, trace-symbol spaces and Killing forms.

Lie words are binary bracket trees with each letter used once.  The normal
form is right-normed with the largest letter innermost: basis words are
tuples ``(a_1, ..., a_{k-1}, max)`` read as [a_1,[a_2,[...,[a_{k-1}, max]]]].
Rewriting uses antisymmetry and the Jacobi identity and always terminates.

``t(p)`` denotes the trace symbol of a Lie word ``p``: its output identified
with its last input.  The space of trace symbols in ``n`` letters is the
span of ``t`` over the basis of the (n+1)-letter Lie space, modulo the cyclic
relation t(p composed-at-last q) = beta t(q composed-at-last p) closed under
letter permutations; the quotient basis is computed by exact elimination.

Killing forms are the trace symbols of right-normed words, evaluated either
through the decorated-graph engine or (as an oracle elsewhere) by traces of
products of adjoint matrices.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import endo, wprop
from .errors import BoundExceeded, NotMultilinear

DEFAULT_LIE_BOUND = 6

Word = Tuple[int, ...]


# -- sparse exact elimination -------------------------------------------------

class Eliminator:
    """Incremental Gaussian elimination over sparse rational rows.

    Rows are dicts key -> number; reduced and pivot rows hold Fractions.  The
    pivot of a row is its smallest key in ``repr`` order, which makes runs
    deterministic; each key's ``repr`` is computed once per eliminator.

    ``add`` keeps U, the union of the supports of the rows offered so far.
    Every row offered lies in Q^U, so their span has dimension ``rank`` inside
    Q^U; once ``rank == |U|`` the span is all of Q^U.  From then on a row
    whose support lies in U is in the span, and ``add`` reports it dependent
    without reducing it.  A row with a coordinate outside U is reduced as
    usual.  The pivots and the rank are the same as without the shortcut.
    """

    def __init__(self):
        self.pivots: Dict = {}
        self._support: set = set()
        self._repr: Dict = {}

    def _pivot_key(self, row):
        return min(row, key=self._repr.__getitem__)

    def reduce(self, row):
        row = {k: Fraction(v) for k, v in row.items() if v != 0}
        for k in row.keys() - self._repr.keys():
            self._repr[k] = repr(k)
        while row:
            k = self._pivot_key(row)
            if k not in self.pivots:
                return row
            piv = self.pivots[k]
            c = row[k] / piv[k]
            for kk, vv in piv.items():
                if kk in row:
                    v = row[kk] - c * vv
                    if v:
                        row[kk] = v
                    else:
                        del row[kk]
                else:
                    row[kk] = -c * vv
        return row

    def add(self, row) -> bool:
        """Insert a row; True if it was independent of the rows so far."""
        support = [k for k, v in row.items() if v != 0]
        if self.rank == len(self._support) \
                and self._support.issuperset(support):
            return False
        self._support.update(support)
        row = self.reduce(row)
        if not row:
            return False
        self.pivots[self._pivot_key(row)] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


# -- trees and normal forms ---------------------------------------------------

def tree_letters(t) -> List[int]:
    if isinstance(t, int):
        return [t]
    l, r = t
    return tree_letters(l) + tree_letters(r)


def _check_multilinear(t):
    letters = tree_letters(t)
    if len(letters) != len(set(letters)):
        raise NotMultilinear("letters %r repeat" % (sorted(letters),))


def _combine(terms_a, bracket_with):
    out: Dict[Word, int] = {}
    for w, c in terms_a:
        for w2, c2 in bracket_with(w):
            out[w2] = out.get(w2, 0) + c * c2
    return tuple(sorted((w, c) for w, c in out.items() if c))


@lru_cache(maxsize=None)
def _bw(u: Word, v: Word):
    """Normal form of the bracket [u, v] of two basis words.

    The recursion keeps the overall largest letter in the right argument
    (flipping by antisymmetry once if needed) and shrinks the left word by
    the Jacobi identity, so it terminates and every output word is basis.
    Coefficients are integers: both rules only add and negate.
    """
    if len(u) == 1 and len(v) == 1:
        a, b = u[0], v[0]
        if a == b:
            return ()
        return (((a, b), 1),) if a < b else (((b, a), -1),)
    if u[-1] > v[-1]:
        return tuple((w, -c) for w, c in _bw(v, u))
    if len(u) == 1:
        return (((u[0],) + v, 1),)
    # [u, v] = [u1,[U,v]] - [U,[u1,v]] with u = [u1, U]
    u1, rest = u[0], u[1:]
    t1 = _combine(_bw(rest, v), lambda w: _bw((u1,), w))
    t2 = _combine(_bw((u1,), v), lambda w: _bw(rest, w))
    return _merge(t1, tuple((w, -c) for w, c in t2))


def _merge(a, b):
    out = dict(a)
    for w, c in b:
        out[w] = out.get(w, 0) + c
    return tuple(sorted((w, c) for w, c in out.items() if c))


def _nf(t) -> Dict[Word, int]:
    """Normal-form coordinates of a bracket tree, with int coefficients."""
    if isinstance(t, int):
        return {(t,): 1}
    l, r = t
    right = _nf(r).items()
    out: Dict[Word, int] = {}
    for wl, cl in _nf(l).items():
        for wr, cr in right:
            c = cl * cr
            for w, cc in _bw(wl, wr):
                out[w] = out.get(w, 0) + c * cc
    return {w: c for w, c in out.items() if c}


def nf(t) -> Dict[Word, Fraction]:
    """Normal-form coordinates of a bracket tree."""
    return {w: Fraction(c) for w, c in _nf(t).items()}


def normalize(trees) -> Dict[Word, Fraction]:
    """Normalize a tree or a {tree-or-key: coefficient} combination."""
    if isinstance(trees, (int, tuple)):
        _check_multilinear(trees)
        return nf(trees)
    out: Dict[Word, Fraction] = {}
    for t, c in trees.items():
        _check_multilinear(t)
        c = Fraction(c)
        for w, cc in _nf(t).items():
            out[w] = out.get(w, 0) + c * cc
    return {w: c for w, c in out.items() if c}


def basis_words(n: int) -> List[Word]:
    """The right-normed basis of the n-letter multilinear Lie space."""
    if n == 1:
        return [(1,)]
    return [p + (n,) for p in itertools.permutations(range(1, n))]


def word_to_tree(w: Word):
    t = w[-1]
    for a in reversed(w[:-1]):
        t = (a, t)
    return t


def all_trees(letters: Sequence[int]):
    """All full binary bracketings of the letter sequence, in order."""
    letters = list(letters)
    if len(letters) == 1:
        return [letters[0]]
    out = []
    for k in range(1, len(letters)):
        for l in all_trees(letters[:k]):
            for r in all_trees(letters[k:]):
                out.append((l, r))
    return out


def lie_dim(n: int, bound: Optional[int] = None) -> int:
    """Rank of the span of all multilinear bracketings after normalization."""
    limit = bound if bound is not None else DEFAULT_LIE_BOUND
    if not 1 <= n <= limit:
        raise BoundExceeded("n=%d outside 1..%d" % (n, limit))
    elim = Eliminator()
    for perm in itertools.permutations(range(1, n + 1)):
        for t in all_trees(perm):
            elim.add(_nf(t))
    return elim.rank


# -- trace-symbol spaces ------------------------------------------------------

def _subst_leaf(t, letter, sub):
    if isinstance(t, int):
        return sub if t == letter else t
    l, r = t
    return (_subst_leaf(l, letter, sub), _subst_leaf(r, letter, sub))


def _map_letters(t, f):
    if isinstance(t, int):
        return f(t)
    l, r = t
    return (_map_letters(l, f), _map_letters(r, f))


def _relation_row(p_tree, q_tree, n1, m1):
    """The cyclic-trace relation for p in n1+1 letters, q in m1+1 letters."""
    n = n1 + m1
    # w1 = p with its last input replaced by q, q's letters shifted by n1.
    q_shift = _map_letters(q_tree, lambda a: a + n1)
    w1 = _subst_leaf(p_tree, n1 + 1, q_shift)
    # w2 = q with its last input replaced by p, p's letters shifted by m1,
    # then the two blocks of 1..n transposed.
    p_shift = _map_letters(p_tree, lambda a: a + m1)
    w2 = _subst_leaf(q_tree, m1 + 1, p_shift)

    def beta(a):
        if a <= m1:
            return a + n1
        if a <= n:
            return a - m1
        return a  # the traced letter n+1

    w2 = _map_letters(w2, beta)
    row = _nf(w1)
    for w, c in _nf(w2).items():
        row[w] = row.get(w, 0) - c
    return {w: c for w, c in row.items() if c}


class TraceSpace:
    """The quotient space of trace symbols in ``n`` letters.

    ``symbols`` lists the ambient t-basis (basis words of the (n+1)-letter
    Lie space); ``basis`` the representatives surviving the quotient;
    ``reduce`` rewrites any coordinate vector into the quotient basis.
    """

    def __init__(self, n: int, bound: Optional[int] = None,
                 extra_instances: int = 0, rng=None):
        limit = bound if bound is not None else DEFAULT_LIE_BOUND
        if not 0 <= n <= limit:
            raise BoundExceeded("n=%d outside 0..%d" % (n, limit))
        self.n = n
        self.symbols = basis_words(n + 1)
        self._elim = Eliminator()
        for row in self._relation_instances(n):
            self._elim.add(row)
        if extra_instances:
            rows = list(self._random_instances(n, extra_instances, rng))
            for row in rows:
                self._elim.add(row)
        pivot_keys = set(self._elim.pivots)
        self.basis = [w for w in self.symbols if w not in pivot_keys]
        self.dim = len(self.basis)

    @staticmethod
    def _closed(row, n):
        """All letter-permuted copies of a relation row."""
        for sigma in itertools.permutations(range(1, n + 1)):
            table = tuple(zip(range(1, n + 2), sigma + (n + 1,)))
            out: Dict[Word, int] = {}
            for w, c in row.items():
                for w2, c2 in _perm_cache(w, table):
                    out[w2] = out.get(w2, 0) + c * c2
            out = {w: c for w, c in out.items() if c}
            if out:
                yield out

    def _relation_instances(self, n):
        for n1 in range(0, n + 1):
            m1 = n - n1
            for p in basis_words(n1 + 1):
                for q in basis_words(m1 + 1):
                    row = _relation_row(word_to_tree(p), word_to_tree(q), n1, m1)
                    if not row:
                        continue
                    yield from self._closed(row, n)

    def _random_instances(self, n, count, rng):
        import random
        rng = rng or random.Random(0)
        for _ in range(count):
            n1 = rng.randint(0, n)
            m1 = n - n1
            p = rng.choice(all_trees(list(range(1, n1 + 2))))
            q = rng.choice(all_trees(list(range(1, m1 + 2))))
            row = _relation_row(p, q, n1, m1)
            if row:
                yield from self._closed(row, n)

    def reduce(self, coords: Dict[Word, Fraction]) -> Dict[Word, Fraction]:
        """Quotient-basis coordinates of a t-symbol combination."""
        return self._elim.reduce(coords)


@lru_cache(maxsize=None)
def _perm_cache(word, table_items):
    table = dict(table_items)
    tree = _map_letters(word_to_tree(word), lambda a: table[a])
    return tuple(sorted(_nf(tree).items()))


# -- Killing forms ------------------------------------------------------------

KAPPA_SIG = wprop.Signature({"br": (2, 1)})


def kappa_element(n: int) -> wprop.FreeElement:
    """t([x1,[x2,...[xn,x_{n+1}]...]]) as a free wheeled-prop element."""
    cur = wprop.eta(KAPPA_SIG, "br", ("x%d" % n, "z"), ("y%d" % n,))
    for k in range(n - 1, 0, -1):
        nxt = wprop.eta(KAPPA_SIG, "br", ("x%d" % k, "t%d" % k), ("y%d" % k,))
        cur = wprop.contract(wprop.horizontal(nxt, cur), "t%d" % k, "y%d" % (k + 1))
    return wprop.contract(cur, "z", "y1")


def killing_eval(bracket, n: int, d: int) -> endo.Tensor:
    """Evaluate the n-th Killing form of a (2,1) bracket over dimension d.

    ``bracket`` is a nested (d,d,d) array: bracket[i][j][k] is the k-th
    coordinate of [e_i, e_j].  The result has in-axes x1..xn.
    """
    el = kappa_element(n)
    [(coeff, graph, decor)] = list(el.terms.values())
    out = endo.evaluate_decorated(graph, decor, {"br": bracket}, d)
    return out.scale(coeff) if coeff != 1 else out


def kappa_matrix(bracket, d: int) -> List[List[Fraction]]:
    """The classical Killing form as a d-by-d matrix of rationals."""
    t = killing_eval(bracket, 2, d)
    return t.data.transpose([t.axis_pos(("in", "x%d" % k)) for k in (1, 2)]).tolist()


def matrix_rank(mat) -> int:
    elim = Eliminator()
    for row in mat:
        elim.add({k: v for k, v in enumerate(row) if v != 0})
    return elim.rank


def semisimple_witness(bracket, d: int) -> dict:
    """Check a structure-constant tensor for the semisimplicity certificate.

    Verifies antisymmetry and the Jacobi identity exactly, then tests the
    classical Killing form for full rank.  Failures are reported, not raised.
    """
    B = [[[Fraction(bracket[i][j][k]) for k in range(d)]
          for j in range(d)] for i in range(d)]
    antisym = all(B[i][j][k] == -B[j][i][k]
                  for i in range(d) for j in range(d) for k in range(d))
    jacobi = True
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    s = sum(B[i][j][m] * B[m][k][l] + B[j][k][m] * B[m][i][l]
                            + B[k][i][m] * B[m][j][l] for m in range(d))
                    if s != 0:
                        jacobi = False
    nondegenerate = matrix_rank(kappa_matrix(B, d)) == d
    return {
        "antisymmetry": antisym,
        "jacobi": jacobi,
        "nondegenerate": nondegenerate,
        "ok": antisym and jacobi and nondegenerate,
    }


# -- fixtures -----------------------------------------------------------------

def zero_bracket(d: int):
    return [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]


def sl2_bracket():
    """Structure constants of sl2 on the basis (e, f, h)."""
    B = zero_bracket(3)
    e, f, h = 0, 1, 2
    B[e][f][h] = Fraction(1)    # [e,f] = h
    B[f][e][h] = Fraction(-1)
    B[h][e][e] = Fraction(2)    # [h,e] = 2e
    B[e][h][e] = Fraction(-2)
    B[h][f][f] = Fraction(-2)   # [h,f] = -2f
    B[f][h][f] = Fraction(2)
    return B


def solvable2_bracket():
    """The 2-dimensional nonabelian solvable algebra: [e,f] = e."""
    B = zero_bracket(2)
    B[0][1][0] = Fraction(1)
    B[1][0][0] = Fraction(-1)
    return B


# -- dimension calculator for the two-sided spaces ---------------------------

def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]
        yield [[first]] + part


def wheeled_dim(n: int, m: int, bound: Optional[int] = None) -> int:
    """Dimension of the two-sided space with n inputs and m outputs.

    Sums over splittings of the n letters into m nonempty ordered word
    blocks and any number of nonempty unordered trace blocks, multiplying
    word-space and trace-space dimensions.
    """
    lie_dims = {}
    trace_dims = {}
    total = 0
    letters = list(range(1, n + 1))
    for part in _set_partitions(letters):
        blocks = sorted(part, key=lambda b: sorted(b))
        if len(blocks) < m:
            continue
        # Choose which m blocks are word blocks (ordered assignment).
        for word_blocks in itertools.permutations(range(len(blocks)), m):
            trace_blocks = [blocks[k] for k in range(len(blocks))
                            if k not in word_blocks]
            prod = 1
            for k in word_blocks:
                nb = len(blocks[k])
                if nb not in lie_dims:
                    lie_dims[nb] = lie_dim(nb, bound)
                prod *= lie_dims[nb]
            for b in trace_blocks:
                nb = len(b)
                if nb not in trace_dims:
                    trace_dims[nb] = TraceSpace(nb, bound=bound).dim
                prod *= trace_dims[nb]
            total += prod
    return total
