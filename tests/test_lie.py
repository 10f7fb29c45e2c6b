import itertools
import math
import random
from fractions import Fraction

import pytest

from wirecat import lie
from wirecat.errors import BoundExceeded, NotMultilinear, SizeCapExceeded
from wirecat.lie import (
    Eliminator,
    TraceSpace,
    all_trees,
    basis_words,
    kappa_element,
    kappa_matrix,
    killing_eval,
    lie_dim,
    nf,
    normalize,
    semisimple_witness,
    sl2_bracket,
    solvable2_bracket,
    wheeled_dim,
    word_to_tree,
    zero_bracket,
)


# -- ad-trace oracle ----------------------------------------------------------

def ad_matrices(B, d):
    """Matrix of ad(e_i): rows are outputs, columns the second argument."""
    return [[[B[i][j][o] for j in range(d)] for o in range(d)]
            for i in range(d)]


def matmul(A, C, d):
    return [[sum(A[i][k] * C[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)]


def trace(A, d):
    return sum(A[i][i] for i in range(d))


def ad_trace_kappa(B, d, idx):
    """tr(ad e_{i1} ... ad e_{ik}) for the index tuple idx."""
    M = ad_matrices(B, d)
    prod = M[idx[0]]
    for i in idx[1:]:
        prod = matmul(prod, M[i], d)
    return trace(prod, d)


# -- tree-quotient oracle for the Lie dimension -------------------------------

def subtrees_replaced(t):
    """Yield (subtree, rebuild) for every node of t, root included."""
    yield t, (lambda s: s)
    if isinstance(t, int):
        return
    l, r = t
    for sub, rebuild in subtrees_replaced(l):
        yield sub, (lambda s, rb=rebuild: (rb(s), r))
    for sub, rebuild in subtrees_replaced(r):
        yield sub, (lambda s, rb=rebuild: (l, rb(s)))


def tree_quotient_dim(n):
    """Dimension of the span of all bracketings modulo node-local
    antisymmetry and Jacobi relation instances (independent of nf)."""
    trees = [t for perm in itertools.permutations(range(1, n + 1))
             for t in all_trees(perm)]
    keys = set(trees)
    elim = Eliminator()
    rows = 0
    for t in trees:
        for sub, rebuild in subtrees_replaced(t):
            if isinstance(sub, int):
                continue
            l, r = sub
            # antisymmetry: [l,r] + [r,l] = 0
            row = {rebuild((l, r)): Fraction(1)}
            swapped = rebuild((r, l))
            row[swapped] = row.get(swapped, Fraction(0)) + 1
            elim.add(row)
            rows += 1
            # Jacobi: [[x,y],z] - [x,[y,z]] + [y,[x,z]] = 0
            if not isinstance(l, int):
                x, y = l
                row = {rebuild(((x, y), r)): Fraction(1)}
                for tt, c in (((x, (y, r)), -1), ((y, (x, r)), 1)):
                    k = rebuild(tt)
                    row[k] = row.get(k, Fraction(0)) + c
                elim.add(row)
                rows += 1
    assert rows
    return len(keys) - elim.rank


# -- normal forms -------------------------------------------------------------

def test_nf_base_cases():
    assert nf(1) == {(1,): 1}
    assert nf((1, 2)) == {(1, 2): 1}
    assert nf((2, 1)) == {(1, 2): -1}
    assert nf(((1, 2), 3)) == {(1, 2, 3): 1, (2, 1, 3): -1}


def test_nf_antisymmetry_and_jacobi():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(2, 5)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        t = rng.choice(all_trees(perm))
        sub, rebuild = rng.choice([p for p in subtrees_replaced(t)
                                   if not isinstance(p[0], int)])
        l, r = sub
        # antisymmetry
        lhs = nf(rebuild((l, r)))
        rhs = {w: -c for w, c in nf(rebuild((r, l))).items()}
        assert lhs == rhs
        # Jacobi
        if not isinstance(l, int):
            x, y = l
            total = dict(nf(rebuild(((x, y), r))))
            for tt, c in (((x, (y, r)), -1), ((y, (x, r)), 1)):
                for w, cc in nf(rebuild(tt)).items():
                    total[w] = total.get(w, Fraction(0)) + c * cc
            assert all(v == 0 for v in total.values())


def test_normalize_combination_and_multilinearity():
    assert normalize({(1, 2): 2, (2, 1): 2}) == {}
    with pytest.raises(NotMultilinear):
        normalize((1, 1))
    with pytest.raises(NotMultilinear):
        normalize({((1, 2), 1): 1})


def test_nf_and_normalize_values_are_fractions():
    t = (((1, 3), 2), (4, 5))
    for coords in (nf(t), normalize(t), normalize({t: 2, (5, (1, 2)): 1}),
                   normalize({t: Fraction(1, 3)})):
        assert coords
        assert all(type(c) is Fraction for c in coords.values())
    assert normalize({t: Fraction(1, 3)}) == {
        w: c / 3 for w, c in nf(t).items()}


def test_nf_lands_in_right_normed_basis():
    rng = random.Random(62)
    for _ in range(40):
        n = rng.randint(2, 5)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        t = rng.choice(all_trees(perm))
        words = set(basis_words(n))
        assert set(nf(t)) <= words


def test_lie_dim_factorial_and_oracle():
    for n in range(2, 7):
        want = 1
        for k in range(1, n):
            want *= k
        assert lie_dim(n) == want
        if n <= 5:
            assert tree_quotient_dim(n) == want


def test_lie_dim_bound():
    with pytest.raises(BoundExceeded):
        lie_dim(7)
    with pytest.raises(BoundExceeded):
        lie_dim(0)


# -- trace spaces -------------------------------------------------------------

def test_trace_space_small_dims():
    assert TraceSpace(0).dim == 1
    assert TraceSpace(1).dim == 1
    assert TraceSpace(2).dim == 1
    assert TraceSpace(3).dim == 2


def test_trace_space_bound():
    with pytest.raises(BoundExceeded):
        TraceSpace(7)


def test_trace_space_stable_under_instance_doubling():
    for n in range(0, 4):
        base = TraceSpace(n)
        more = TraceSpace(n, extra_instances=40, rng=random.Random(63))
        assert base.dim == more.dim
        assert base.basis == more.basis


def test_trace_reduce_kills_permutation_relations():
    # t(sigma p) - sigma t(p) lies in the relation space: reducing the
    # cyclic rotation of a word against the quotient gives the same result
    # as reducing the word.  Spot check: reduce of a relation row is zero.
    rng = random.Random(64)
    for _ in range(20):
        n1 = rng.randint(0, 3)
        m1 = rng.randint(0, 3 - n1)
        ts = TraceSpace(n1 + m1)
        p = rng.choice(basis_words(n1 + 1))
        q = rng.choice(basis_words(m1 + 1))
        row = lie._relation_row(word_to_tree(p), word_to_tree(q), n1, m1)
        assert ts.reduce(row) == {}


def test_trace_reduce_expresses_in_basis():
    ts = TraceSpace(3)
    for w in basis_words(4):
        red = ts.reduce({w: Fraction(1)})
        assert set(red) <= set(ts.basis)


# -- Killing forms ------------------------------------------------------------

def test_kappa_element_shape():
    el = kappa_element(3)
    assert len(el.terms) == 1
    ins, outs = el.boundary()
    assert ins == frozenset({"x1", "x2", "x3"}) and outs == frozenset()


def test_kappa_sl2_values_both_methods():
    B = sl2_bracket()
    K = kappa_matrix(B, 3)
    e, f, h = 0, 1, 2
    assert K[h][h] == 8
    assert K[e][f] == 4
    for i in range(3):
        for j in range(3):
            assert K[i][j] == ad_trace_kappa(B, 3, (i, j))


def killing_entry(t, idx):
    """The entry of a Killing form at x1 = e_{idx[0]}, x2 = e_{idx[1]}, ..."""
    pos = [0] * len(idx)
    for k, i in enumerate(idx):
        pos[t.axis_pos(("in", "x%d" % (k + 1)))] = i
    return t.data[tuple(pos)]


def test_kappa_n_matches_ad_trace_on_random_brackets():
    rng = random.Random(65)
    for n in (2, 3):
        for _ in range(5):
            d = 2
            B = [[[Fraction(rng.randint(-3, 3)) for _ in range(d)]
                  for _ in range(d)] for _ in range(d)]
            t = killing_eval(B, n, d)
            for idx in itertools.product(range(d), repeat=n):
                assert killing_entry(t, idx) == ad_trace_kappa(B, d, idx)


def test_kappa_9_fits_under_the_default_cap():
    B = sl2_bracket()
    t = killing_eval(B, 9, 3)
    rng = random.Random(66)
    for _ in range(200):
        idx = tuple(rng.randrange(3) for _ in range(9))
        assert killing_entry(t, idx) == ad_trace_kappa(B, 3, idx)


def test_kappa_limit_is_n_12():
    # Contracting the ring in vertex order peaks at n+1 axes, so n = 11 is
    # the last to fit under the default cap of 12.  At d = 1 every tensor has
    # one entry, and [e, e] = 2e gives tr((ad e)^n) = 2^n.
    B = [[[Fraction(2)]]]
    for n in (9, 10, 11):
        assert killing_eval(B, n, 1).data.reshape(-1)[0] == 2 ** n
    with pytest.raises(SizeCapExceeded):
        killing_eval(B, 12, 1)


def test_kappa_is_symmetric_for_sl2():
    K = kappa_matrix(sl2_bracket(), 3)
    for i in range(3):
        for j in range(3):
            assert K[i][j] == K[j][i]


# -- witness and fixtures -----------------------------------------------------

def test_semisimple_witness_sl2():
    assert semisimple_witness(sl2_bracket(), 3)["ok"]


def test_semisimple_witness_zero_fails_nondegeneracy():
    rep = semisimple_witness(zero_bracket(2), 2)
    assert rep["antisymmetry"] and rep["jacobi"] and not rep["nondegenerate"]


def test_semisimple_witness_solvable_fails_nondegeneracy():
    rep = semisimple_witness(solvable2_bracket(), 2)
    assert rep["antisymmetry"] and rep["jacobi"] and not rep["nondegenerate"]


def test_semisimple_witness_flags_non_lie_bracket():
    B = zero_bracket(2)
    B[0][1][0] = Fraction(1)  # not antisymmetric
    rep = semisimple_witness(B, 2)
    assert not rep["antisymmetry"] and not rep["ok"]


# -- two-sided dimensions -----------------------------------------------------

def test_wheeled_dim_pure_word_case():
    # One output block holding all letters: just the word space.
    assert wheeled_dim(1, 1) == 1
    assert wheeled_dim(2, 2) == 2  # two singleton word blocks, 2 orders


def test_wheeled_dim_pure_trace_case():
    # No outputs: partitions into trace blocks only.
    # n=2: {12} -> trace-dim 1; {1}{2} -> 1*1 = 1; total 2.
    assert wheeled_dim(2, 0) == 2
    # n=1: single trace block.
    assert wheeled_dim(1, 0) == 1


def test_wheeled_dim_mixed():
    # n=2, m=1: word block {12} (dim 1, 1 choice? two letters one block:
    # lie_dim(2)=1) + word {1}/trace {2} + word {2}/trace {1} -> 3.
    assert wheeled_dim(2, 1) == 3


def stirling1(n, k):
    """Unsigned Stirling number of the first kind c(n, k)."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return (n - 1) * stirling1(n - 1, k) + stirling1(n - 1, k - 1)


def test_wheeled_dim_counts_permutations_by_cycles():
    # Word and trace blocks of size k both contribute (k-1)!, so the total
    # counts permutations of n+1 points with m+1 cycles, word blocks ordered.
    for n in range(0, 6):
        for m in range(0, n + 1):
            want = math.factorial(m) * stirling1(n + 1, m + 1)
            assert wheeled_dim(n, m) == want, (n, m)


# -- the eliminator's saturation shortcut --------------------------------------

class PlainEliminator(Eliminator):
    """Reference: reduces every row offered, without the shortcut."""

    def add(self, row):
        row = self.reduce(row)
        if not row:
            return False
        self.pivots[self._pivot_key(row)] = row
        return True


class CountingEliminator(Eliminator):
    def __init__(self):
        super().__init__()
        self.reductions = 0

    def reduce(self, row):
        self.reductions += 1
        return super().reduce(row)


def test_saturation_skips_rows_inside_a_full_span():
    rng = random.Random(66)
    elim = CountingEliminator()
    plain = PlainEliminator()
    keys = [(1,), (1, 2), 3, "x"]
    rows = [{k: Fraction(rng.randint(-3, 3)) for k in keys} for _ in range(30)]
    for row in rows:
        assert elim.add(row) == plain.add(row)
    assert elim.rank == plain.rank == len(keys)
    assert elim.pivots == plain.pivots
    # Saturated: rows over the same keys are dependent and not reduced.
    before = elim.reductions
    assert not elim.add({(1, 2): 5, 3: -1})
    assert not elim.add({})
    assert elim.reductions == before
    # A row with a coordinate no earlier row had is still independent.
    assert elim.add({(1,): 1, (2,): 1})
    assert elim.rank == len(keys) + 1
    assert elim.reduce({(2,): 7}) == {}


def test_saturation_leaves_rank_and_pivots_unchanged(monkeypatch):
    fast = {n: TraceSpace(n) for n in range(0, 5)}
    ranks = {n: lie_dim(n) for n in range(1, 6)}
    monkeypatch.setattr(lie, "Eliminator", PlainEliminator)
    for n in range(0, 5):
        plain = TraceSpace(n)
        assert isinstance(plain._elim, PlainEliminator)
        assert plain.basis == fast[n].basis
        assert list(plain._elim.pivots.items()) == \
            list(fast[n]._elim.pivots.items())
    for n in range(1, 6):
        assert lie_dim(n) == ranks[n]
