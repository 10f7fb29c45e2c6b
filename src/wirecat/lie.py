"""Multilinear free-Lie normal forms, trace-symbol spaces and Killing forms.

Lie words are binary bracket trees with each letter used once.  The normal
form is right-normed with the largest letter innermost: basis words are
tuples ``(a_1, ..., a_{k-1}, max)`` read as [a_1,[a_2,[...,[a_{k-1}, max]]]].
A Lie element's coordinates are read off its associative expansion
[x, y] = xy - yx: they are the coefficients of the words that end in its
largest letter.

``t(p)`` denotes the trace symbol of a Lie word ``p``: its output identified
with its last input.  The space of trace symbols in ``n`` letters is the
span of ``t`` over the basis of the (n+1)-letter Lie space, modulo the cyclic
relation t(p composed-at-last q) = beta t(q composed-at-last p) closed under
letter permutations.  On right-normed basis words (Reutenauer, *Free Lie
Algebras*, 1993) the relation is the rotation uv ~ vu of the letters before
the traced one, so the quotient basis is one word per rotation orbit.

The multilinear Lie space is spanned by one bracketing per antisymmetry
class, the one with each node's largest letter in its right factor:
(2n-3)!! trees instead of the n! * Catalan(n-1) bracketings of all orders.

Killing forms are the trace symbols of right-normed words, evaluated either
through the decorated-graph engine or (as an oracle elsewhere) by traces of
products of adjoint matrices.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import endo, wprop
from .errors import BoundExceeded, NotMultilinear

DEFAULT_LIE_BOUND = 8

Word = Tuple[int, ...]


# -- sparse exact elimination -------------------------------------------------

class Eliminator:
    """Incremental Gaussian elimination over sparse rational rows.

    Rows are dicts key -> number; reduced and pivot rows hold Fractions.  The
    pivot of a row is its least key in ``repr`` order: keys may be of mixed
    types or bracket trees, which have no order of their own, and ``repr``
    gives them one that is the same on every run.

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

    def reduce(self, row):
        row = {k: Fraction(v) for k, v in row.items() if v != 0}
        while row:
            k = min(row, key=repr)
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
        self.pivots[min(row, key=repr)] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


# -- trees and normal forms ---------------------------------------------------

def _expand(t) -> Dict[Word, int]:
    """The associative expansion of a bracket tree, [x, y] = xy - yx; the
    letters are distinct, so no two words of it coincide."""
    if isinstance(t, int):
        return {(t,): 1}
    l, r = t
    right = _expand(r).items()
    out: Dict[Word, int] = {}
    for u, a in _expand(l).items():
        for v, b in right:
            out[u + v], out[v + u] = a * b, -a * b
    return out


def _nf(t) -> Dict[Word, int]:
    """Normal-form coordinates of a bracket tree, with int coefficients.

    A basis word [a_1,[...,[a_{k-1}, max]]] expands to exactly one word that
    ends in max, itself, so the coordinates of a Lie element are its
    expansion's coefficients on the words ending in its largest letter.  For
    [l, r] with that letter in r they are the words u.v, u from the expansion
    of l and v from the normal form of r, as every word of r.l ends in a
    letter of l.  With the letter in l, [l, r] = -[r, l].  Both largest
    letters come off those words: any word of l's expansion holds every
    letter of l, and every word of r's normal form ends in r's largest one.
    """
    if isinstance(t, int):
        return {(t,): 1}
    l, r = t
    left, right = _expand(l), _nf(r)
    if max(next(iter(left))) > next(iter(right))[-1]:
        return {w: -c for w, c in _nf((r, l)).items()}
    return {u + v: a * b for u, a in left.items() for v, b in right.items()}


def normalize(trees) -> Dict[Word, Fraction]:
    """Normalize a tree or a {tree-or-key: coefficient} combination.

    Every word of ``_nf(t)`` holds each leaf of ``t`` once, so a letter that
    repeats in ``t`` repeats in its first word.
    """
    if isinstance(trees, (int, tuple)):
        trees = {trees: 1}
    out: Dict[Word, Fraction] = {}
    for t, c in trees.items():
        coords = _nf(t)
        w = next(iter(coords))
        if len(set(w)) < len(w):
            raise NotMultilinear("letters %r repeat" % (sorted(w),))
        c = Fraction(c)
        for w, cc in coords.items():
            out[w] = out.get(w, 0) + c * cc
    return {w: c for w, c in out.items() if c}


def basis_words(n: int) -> List[Word]:
    """The right-normed basis of the n-letter multilinear Lie space."""
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


def _sorted_trees(letters: Tuple[int, ...]):
    """One bracketing of the sorted ``letters`` per antisymmetry class: at
    every node the largest letter is in the right factor.

    Every bracketing of the letters in any order equals one of these up to
    sign, as ``_nf((l, r)) == -_nf((r, l))`` holds exactly.
    """
    if len(letters) == 1:
        yield letters[0]
        return
    *rest, top = letters
    for k in range(1, len(rest) + 1):
        for left in itertools.combinations(rest, k):
            right = tuple(a for a in letters if a not in left)
            for l in _sorted_trees(left):
                for r in _sorted_trees(right):
                    yield (l, r)


def lie_dim(n: int, bound: Optional[int] = None) -> int:
    """Rank of the span of all multilinear bracketings after normalization.

    Every normal form of a tree of 1..n lies on the (n-1)! basis words, the
    words of 1..n that end in n, so at rank (n-1)! the span is all of them
    and no further tree can change the rank: the loop stops there.
    """
    limit = bound if bound is not None else DEFAULT_LIE_BOUND
    if not 1 <= n <= limit:
        raise BoundExceeded("n=%d outside 1..%d" % (n, limit))
    full = math.factorial(n - 1)
    elim = Eliminator()
    for t in _sorted_trees(tuple(range(1, n + 1))):
        elim.add(_nf(t))
        if elim.rank == full:
            break
    return elim.rank


# -- trace-symbol spaces ------------------------------------------------------

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
    w1 = _map_letters(p_tree, lambda a: q_shift if a == n1 + 1 else a)
    # w2 = q with its last input replaced by p, in w1's letters: q's shifted
    # by n1, whose last is then n+1, and p's last renamed n+1.
    p_last = _map_letters(p_tree, lambda a: n + 1 if a == n1 + 1 else a)
    w2 = _map_letters(q_shift, lambda a: p_last if a == n + 1 else a)
    row = _nf(w1)
    for w, c in _nf(w2).items():
        row[w] = row.get(w, 0) - c
    return {w: c for w, c in row.items() if c}


class TraceSpace:
    """The quotient space of trace symbols in ``n`` letters.

    ``symbols`` lists the ambient t-basis (basis words of the (n+1)-letter
    Lie space); ``basis`` the representatives surviving the quotient;
    ``reduce`` rewrites any coordinate vector into the quotient basis.

    The relation space is spanned by e_{w.(n+1)} - e_{rot(w).(n+1)} over the
    words w of 1..n, rot moving the first letter to the end: for basis words
    p = u.(n1+1) and q = v.(m1+1) both composites in ``_relation_row`` are
    right-normed with n+1 innermost, so its row is e_{uv'.(n+1)} -
    e_{v'u.(n+1)}, v' being v shifted by n1; letter permutations fixing n+1
    keep basis words basis; and e_{xy.(n+1)} - e_{yx.(n+1)} is the sum of the
    rows of xy, rot(xy), ..., rot^(|x|-1)(xy).  ``_rep`` maps each symbol to
    its rotation of largest ``repr``, which elimination pivoting on the
    smallest ``repr`` leaves unpivoted.  ``extra_instances`` random relation
    rows are folded through ``_rep``, and any residue goes into an eliminator
    whose pivots leave ``basis``.
    """

    def __init__(self, n: int, bound: Optional[int] = None,
                 extra_instances: int = 0, rng=None):
        limit = bound if bound is not None else DEFAULT_LIE_BOUND
        if not 0 <= n <= limit:
            raise BoundExceeded("n=%d outside 0..%d" % (n, limit))
        self.n = n
        self.symbols = basis_words(n + 1)
        self._rep: Dict[Word, Word] = {}
        for w in self.symbols:
            if w not in self._rep:  # k = n repeats w, so n = 0 has an orbit
                orbit = [w[k:-1] + w[:k] + w[-1:] for k in range(len(w))]
                self._rep.update(dict.fromkeys(orbit, max(orbit, key=repr)))
        self._residues = Eliminator()
        if extra_instances:
            rng = rng or random.Random(0)
            trees = [all_trees(range(1, k + 2)) for k in range(n + 1)]
            for _ in range(extra_instances):
                n1 = rng.randint(0, n)
                row = _relation_row(rng.choice(trees[n1]),
                                    rng.choice(trees[n - n1]), n1, n - n1)
                for copy in self._closed(row, n, n1):
                    self._residues.add(self.reduce(copy))
        self.basis = [w for w in self.symbols if self._rep[w] == w
                      and w not in self._residues.pivots]
        self.dim = len(self.basis)

    @staticmethod
    def _closed(row, n, n1):
        """The copies of a relation row (basis-word keys, none if it is empty)
        under the shuffles of the letter blocks 1..n1 and n1+1..n, identity
        first, each relabelling the keys letter by letter; n+1 stays put."""
        if not row:
            return
        for first in itertools.combinations(range(1, n + 1), n1):
            second = tuple(a for a in range(1, n + 1) if a not in first)
            table = (0,) + first + second + (n + 1,)
            yield {tuple(table[a] for a in w): c for w, c in row.items()}

    def reduce(self, coords: Dict[Word, Fraction]) -> Dict[Word, Fraction]:
        """Quotient-basis coordinates of a t-symbol combination."""
        folded: Dict[Word, Fraction] = {}
        for w, c in coords.items():
            folded[self._rep[w]] = folded.get(self._rep[w], 0) + c
        return self._residues.reduce(folded)


# -- Killing forms ------------------------------------------------------------

KAPPA_SIG = wprop.Signature({"br": (2, 1)})


def kappa_element(n: int) -> wprop.FreeElement:
    """t([x1,[x2,...[xn,x_{n+1}]...]]) as a free wheeled-prop element."""
    if n < 1:
        raise BoundExceeded("n=%d: a Killing form needs n >= 1 letters" % n)
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
    [(_, graph, decor)] = kappa_element(n).terms.values()  # coefficient 1
    return endo.evaluate_decorated(graph, decor, {"br": bracket}, d)


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
    jacobi = all(sum(B[i][j][m] * B[m][k][l] + B[j][k][m] * B[m][i][l]
                     + B[k][i][m] * B[m][j][l] for m in range(d)) == 0
                 for i, j, k, l in itertools.product(range(d), repeat=4))
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

def wheeled_dim(n: int, m: int) -> int:
    """Dimension of the two-sided space with n inputs and m outputs.

    The n letters split into m nonempty ordered word blocks and any number of
    nonempty unordered trace blocks; a splitting counts the product of its
    word-space and trace-space dimensions.  Count D(n, m) by the block that
    holds the letter 1, of size k, its other letters chosen in C(n-1, k-1)
    ways: as one of the m word blocks it gives m * lie_dim(k) * D(n-k, m-1),
    as a trace block TraceSpace(k).dim * D(n-k, m); D(0, m) is 1 if m = 0,
    else 0.  Every D(i, j) reached has i - j <= n - m, so a word block has at
    most n-m+1 letters and a trace block at most n-m.
    """
    if n < 0 or m < 0:
        raise BoundExceeded("n=%d, m=%d: the counts must be >= 0" % (n, m))
    # Largest first, so that a size past the bound is the one reported.
    lie_dims = {k: lie_dim(k) for k in range(n - m + 1, 0, -1)} if m else {}
    trace_dims = {k: TraceSpace(k).dim for k in range(n - m, 0, -1)}
    counts = {(0, 0): 1}

    def count(i, j):
        if (i, j) not in counts:
            total = 0
            for k in range(1, i - j + 2):
                ways = math.comb(i - 1, k - 1)
                if j:
                    total += ways * j * lie_dims[k] * count(i - k, j - 1)
                if k <= i - j:
                    total += ways * trace_dims[k] * count(i - k, j)
            counts[i, j] = total
        return counts[i, j]

    return count(n, m)
