import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
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
    antisymmetry and Jacobi relation instances (independent of normalize)."""
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
    assert normalize(1) == {(1,): 1}
    assert normalize((1, 2)) == {(1, 2): 1}
    assert normalize((2, 1)) == {(1, 2): -1}
    assert normalize(((1, 2), 3)) == {(1, 2, 3): 1, (2, 1, 3): -1}


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
        lhs = normalize(rebuild((l, r)))
        rhs = {w: -c for w, c in normalize(rebuild((r, l))).items()}
        assert lhs == rhs
        # Jacobi
        if not isinstance(l, int):
            x, y = l
            total = dict(normalize(rebuild(((x, y), r))))
            for tt, c in (((x, (y, r)), -1), ((y, (x, r)), 1)):
                for w, cc in normalize(rebuild(tt)).items():
                    total[w] = total.get(w, Fraction(0)) + c * cc
            assert all(v == 0 for v in total.values())


def leaves(t):
    return [t] if isinstance(t, int) else leaves(t[0]) + leaves(t[1])


def test_normalize_combination_and_multilinearity():
    assert normalize({(1, 2): 2, (2, 1): 2}) == {}
    # A letter repeated inside one factor, across the two factors, and deep in
    # a subtree; the message lists the tree's letters in order.
    for t in ((1, 1), ((1, 1), 2), ((1, 2), 1), (3, ((1, (2, 4)), (5, 2))),
              (((6, (2, 5)), 1), (4, (3, (5, 7))))):
        for trees in (t, {t: 1}, {(8, 9): 1, t: 2}):
            with pytest.raises(NotMultilinear) as exc:
                normalize(trees)
            assert str(exc.value) == "letters %r repeat" % (sorted(leaves(t)),)


def test_nf_and_normalize_values_are_fractions():
    t = (((1, 3), 2), (4, 5))
    for coords in (normalize(t), normalize(t), normalize({t: 2, (5, (1, 2)): 1}),
                   normalize({t: Fraction(1, 3)})):
        assert coords
        assert all(type(c) is Fraction for c in coords.values())
    assert normalize({t: Fraction(1, 3)}) == {
        w: c / 3 for w, c in normalize(t).items()}


def test_nf_lands_in_right_normed_basis():
    rng = random.Random(62)
    for _ in range(40):
        n = rng.randint(2, 5)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        t = rng.choice(all_trees(perm))
        words = set(basis_words(n))
        assert set(normalize(t)) <= words


def nf_cases(kind, n):
    """The bracketings ``NF_GOLDENS`` pins: every ``_sorted_trees`` tree of
    1..n, or 300 trees of ``all_trees`` over seeded shuffles of 1..n."""
    if kind == "sorted":
        return list(lie._sorted_trees(tuple(range(1, n + 1))))
    rng = random.Random(1000 + n)
    out = []
    for _ in range(300):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        out.append(rng.choice(all_trees(perm)))
    return out


# sha256 of ``normalize`` of each bracketing of ``nf_cases``, one line of
# sorted items per tree.  Any change in a coefficient, a sign or a word shows.
NF_GOLDENS = {
    ("sorted", 1): "04a3dd2ac4bc9e28e4039b278944535cd2932d412c1e6aba4898888f470138a1",
    ("sorted", 2): "9b386e722c1e420b19623fd8de72290d598cdd56f7304c1b87728307fd7f0947",
    ("sorted", 3): "aab4a70c0701dcc1ec61ead9c759bdd1c2869f9a27f715303d980ff77c49312c",
    ("sorted", 4): "62ff9f25804e90238263cf1c1548cfb25c129ad523689bc3f5c8513b2575e350",
    ("sorted", 5): "02817285bac08d5fab58bd7d23e2f2c5a11394a130d96aba73817b1b8e230e63",
    ("sorted", 6): "abec5b09d95af072377efa951a79f63cc1c3a1c7f1553819be03c4a34f79589f",
    ("shuffled", 1): "452384e5af0bce1bac597485a0e0932bb1c92eb06ba820048c6fd14c9078b8a9",
    ("shuffled", 2): "00ad4e84caa8e1ee07bcbb0a271aa58e77d34e74b2deb06a4cf7396d9876949e",
    ("shuffled", 3): "e188953e4a8624b6117f3797065708fe9918f5c1353aa9aff4c1c3e198ad757a",
    ("shuffled", 4): "02cad50ee354470908514e523cf00352a14f77ce68bd170a8bf5abdf5bae768a",
    ("shuffled", 5): "9203c302106da86064c13ba7c76982205d25c362786901f79398205166d61f37",
    ("shuffled", 6): "0f7d37d97019bea609b359be862a357bdc32e77f9e3d289aa75e444ebc8cd5f1",
    ("shuffled", 7): "7c1554e8cdb6c0fb43b9d719bdc27d064020d1e56023d92f05931c605d77bcb8",
}


@pytest.mark.parametrize("kind,n", list(NF_GOLDENS))
def test_normalize_goldens(kind, n):
    digest = hashlib.sha256()
    for t in nf_cases(kind, n):
        digest.update((repr(sorted(normalize(t).items())) + "\n").encode())
    assert digest.hexdigest() == NF_GOLDENS[kind, n]


def commutator_eval(t, mats):
    """A bracket tree evaluated in a matrix Lie algebra, [x, y] = xy - yx."""
    if isinstance(t, int):
        return mats[t]
    x, y = commutator_eval(t[0], mats), commutator_eval(t[1], mats)
    return x.dot(y) - y.dot(x)


def test_normalize_agrees_in_a_matrix_representation():
    # Letters go to random integer 4x4 matrices with exact entries; a tree
    # and its normal form, read back as right-normed trees, must agree.
    rng = random.Random(71)
    for n in range(1, 8):
        for _ in range(20):
            mats = {a: np.array([[rng.randint(-3, 3) for _ in range(4)]
                                 for _ in range(4)], dtype=object)
                    for a in range(1, n + 1)}
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            t = rng.choice(all_trees(perm))
            want = commutator_eval(t, mats)
            got = np.zeros((4, 4), dtype=object)
            for w, c in normalize(t).items():
                got = got + c * commutator_eval(word_to_tree(w), mats)
            assert got.tolist() == want.tolist(), t


def test_lie_dim_factorial_and_oracle():
    for n in range(2, 7):
        want = 1
        for k in range(1, n):
            want *= k
        assert lie_dim(n) == want
        if n <= 5:
            assert tree_quotient_dim(n) == want


def test_nf_is_antisymmetric_at_the_root():
    rng = random.Random(67)
    for _ in range(80):
        n = rng.randint(2, 6)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        l, r = rng.choice(all_trees(perm))
        assert normalize((l, r)) == {w: -c for w, c in normalize((r, l)).items()}


def test_lie_dim_is_the_rank_of_every_bracketing():
    for n in range(1, 6):
        elim = Eliminator()
        for perm in itertools.permutations(range(1, n + 1)):
            for t in all_trees(perm):
                elim.add(normalize(t))
        assert lie_dim(n) == elim.rank, n


def antisymmetry_class(t):
    """The bracketing of t's class with each node's largest letter on the
    right, and that largest letter."""
    if isinstance(t, int):
        return t, t
    (l, ml), (r, mr) = antisymmetry_class(t[0]), antisymmetry_class(t[1])
    return ((l, r), mr) if ml < mr else ((r, l), ml)


def test_lie_dim_offers_one_bracketing_per_antisymmetry_class():
    for n in range(1, 6):
        offered = list(lie._sorted_trees(tuple(range(1, n + 1))))
        classes = {antisymmetry_class(t)[0]
                   for perm in itertools.permutations(range(1, n + 1))
                   for t in all_trees(perm)}
        assert len(offered) == len(set(offered)) == len(classes), n
        assert set(offered) == classes, n
    # (2n-3)!! bracketings for n = 6, against n! * Catalan(5) = 30240.
    assert sum(1 for _ in lie._sorted_trees(tuple(range(1, 7)))) == 945


def test_lie_dim_bound():
    # lie_dim(8) == 5040 under the default bound is the `lie-dim 8` CLI golden.
    assert lie_dim(7) == 720
    with pytest.raises(BoundExceeded):
        lie_dim(9)
    with pytest.raises(BoundExceeded):
        lie_dim(0)


# -- trace spaces -------------------------------------------------------------

def test_trace_space_small_dims():
    assert TraceSpace(0).dim == 1
    assert TraceSpace(1).dim == 1
    assert TraceSpace(2).dim == 1
    assert TraceSpace(3).dim == 2
    assert TraceSpace(6).dim == 120


def test_trace_space_bound():
    assert TraceSpace(8).dim == 5040
    with pytest.raises(BoundExceeded):
        TraceSpace(9)


def test_trace_space_stable_under_instance_doubling():
    for n in range(0, 6):
        base = TraceSpace(n)
        more = TraceSpace(n, extra_instances=40, rng=random.Random(63))
        assert base.dim == more.dim
        assert base.basis == more.basis


def relabel(t, f):
    if isinstance(t, int):
        return f[t]
    return (relabel(t[0], f), relabel(t[1], f))


def permuted(row, sigma):
    """The copy of a relation row under sigma on the letters 1..n, built from
    ``normalize``; the traced letter n+1 stays put."""
    n = len(sigma)
    f = dict(zip(range(1, n + 2), sigma + (n + 1,)))
    out = {}
    for w, c in row.items():
        for w2, c2 in normalize(relabel(word_to_tree(w), f)).items():
            out[w2] = out.get(w2, 0) + c * c2
    return {w: c for w, c in out.items() if c}


def full_closure(n):
    """An eliminator over every relation row under all n! permutations of the
    letters 1..n (the traced letter n+1 stays put), built from ``normalize``."""
    elim = Eliminator()
    for n1 in range(0, n + 1):
        m1 = n - n1
        for p in basis_words(n1 + 1):
            for q in basis_words(m1 + 1):
                row = lie._relation_row(word_to_tree(p), word_to_tree(q), n1, m1)
                for sigma in itertools.permutations(range(1, n + 1)):
                    elim.add(permuted(row, sigma))
    return elim


def test_trace_space_matches_the_full_permutation_closure():
    rng = random.Random(68)
    for n in range(0, 6):
        ts = TraceSpace(n)
        ref = full_closure(n)
        assert set(ts.symbols) - set(ts.basis) == set(ref.pivots), n
        assert ts.basis == [w for w in ts.symbols if w not in ref.pivots]
        inputs = [{w: Fraction(1)} for w in ts.symbols]
        for _ in range(40):
            words = rng.sample(ts.symbols, rng.randint(1, min(6, len(ts.symbols))))
            inputs.append({w: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           for w in words})
        for v in inputs:
            assert ts.reduce(v) == ref.reduce(v), (n, v)


def test_relation_rows_are_closed_under_the_block_shuffles():
    # The closure offers a row's copy under each permutation that keeps the
    # order inside 1..n1 and inside n1+1..n, identity first; the span of all
    # n! copies is pinned by the full-closure test above.
    for n in range(0, 6):
        for n1 in range(0, n + 1):
            m1 = n - n1
            p, q = basis_words(n1 + 1)[-1], basis_words(m1 + 1)[-1]
            row = lie._relation_row(word_to_tree(p), word_to_tree(q), n1, m1)
            want = [permuted(row, sigma)
                    for sigma in itertools.permutations(range(1, n + 1))
                    if list(sigma[:n1]) == sorted(sigma[:n1])
                    and list(sigma[n1:]) == sorted(sigma[n1:])]
            want = [r for r in want if r]
            assert len(want) == math.comb(n, n1) or not row, (n, n1)
            assert list(TraceSpace._closed(row, n, n1)) == want, (n, n1)


def test_relation_rows_are_rotations_of_words():
    # The premise of TraceSpace's generating rows: for basis words p and q the
    # relation row is e_{uv.(n+1)} - e_{vu.(n+1)}, u = p[:-1] and v = q[:-1]
    # shifted by n1; TraceSpace offers one rotation row per word of 1..n.
    for n in range(2, 7):
        for n1 in range(1, n):
            for p in basis_words(n1 + 1):
                for q in basis_words(n - n1 + 1):
                    u, v = p[:-1], tuple(a + n1 for a in q[:-1])
                    row = lie._relation_row(word_to_tree(p), word_to_tree(q),
                                            n1, n - n1)
                    assert row == {u + v + (n + 1,): 1,
                                   v + u + (n + 1,): -1}, (p, q)
        # TraceSpace identifies each symbol with its rotations and no more:
        # every representative is a rotation, one per orbit of n rotations.
        ts = TraceSpace(n)
        for w in ts.symbols:
            r = ts._rep[w]
            assert r[-1] == n + 1 and r[:-1] in (w[k:-1] + w[:k] for k in range(n))
        assert len(set(ts._rep.values())) == math.factorial(n - 1)


def two_pass_relation_row(p_tree, q_tree, n1, m1):
    """Reference for ``_relation_row``: w2 is built as q with its last input
    replaced by p shifted by m1, and then the two blocks of 1..n transposed."""
    n = n1 + m1
    q_shift = lie._map_letters(q_tree, lambda a: a + n1)
    w1 = lie._map_letters(p_tree, lambda a: q_shift if a == n1 + 1 else a)
    p_shift = lie._map_letters(p_tree, lambda a: a + m1)
    w2 = lie._map_letters(q_tree, lambda a: p_shift if a == m1 + 1 else a)

    def beta(a):
        if a <= m1:
            return a + n1
        if a <= n:
            return a - m1
        return a  # the traced letter n+1

    w2 = lie._map_letters(w2, beta)
    row = lie._nf(w1)
    for w, c in lie._nf(w2).items():
        row[w] = row.get(w, 0) - c
    return {w: c for w, c in row.items() if c}


def test_relation_rows_equal_the_two_pass_reference():
    # Every pair of in-order bracketings and every pair of basis words with
    # n = n1 + m1 <= 5: the rows agree item for item, in order.
    pairs = 0
    for n in range(0, 6):
        for n1 in range(0, n + 1):
            m1 = n - n1
            for trees in (lambda k: all_trees(range(1, k + 1)),
                          lambda k: [word_to_tree(w) for w in basis_words(k)]):
                for p, q in itertools.product(trees(n1 + 1), trees(m1 + 1)):
                    row = lie._relation_row(p, q, n1, m1)
                    want = two_pass_relation_row(p, q, n1, m1)
                    assert list(row.items()) == list(want.items()), (p, q)
                    pairs += 1
    assert pairs == 596


RELATION_ROW = lie._relation_row


def no_relation_row(*args):
    """A relation row with its negative terms dropped, so no relation."""
    return {w: c for w, c in RELATION_ROW(*args).items() if c > 0}


def test_extra_instances_catch_a_row_that_is_no_relation(monkeypatch):
    # Random relation rows are a check of the rotation quotient: a row
    # outside the relation space leaves a residue that removes a symbol.
    monkeypatch.setattr(lie, "_relation_row", no_relation_row)
    for n in range(2, 6):
        base = TraceSpace(n)
        more = TraceSpace(n, extra_instances=10, rng=random.Random(69))
        assert set(more.basis) < set(base.basis), n
        assert more.dim == len(more.basis) < base.dim


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
    return Fraction(int(t.num[tuple(pos)]), t.den)


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
    for n in range(0, 8):
        for m in range(0, n + 1):
            want = math.factorial(m) * stirling1(n + 1, m + 1)
            assert wheeled_dim(n, m) == want, (n, m)


def test_wheeled_dim_refuses_negative_counts():
    for n, m in ((-1, 0), (3, -1), (-2, -2)):
        with pytest.raises(BoundExceeded):
            wheeled_dim(n, m)


def test_wheeled_dim_computes_each_block_size_once(monkeypatch):
    # A word block of wheeled_dim(6, 1) has 1..6 letters and a trace block
    # 1..5; each of those dimensions is computed once per call.
    sizes = {"lie": [], "trace": []}

    def counted_lie_dim(k, bound=None):
        sizes["lie"].append(k)
        return lie_dim(k, bound)

    def counted_trace_space(k, **kwargs):
        sizes["trace"].append(k)
        return TraceSpace(k, **kwargs)

    monkeypatch.setattr(lie, "lie_dim", counted_lie_dim)
    monkeypatch.setattr(lie, "TraceSpace", counted_trace_space)
    assert lie.wheeled_dim(6, 1) == stirling1(7, 2)
    assert sorted(sizes["lie"]) == list(range(1, 7))
    assert sorted(sizes["trace"]) == list(range(1, 6))


# -- the eliminator's saturation shortcut --------------------------------------

class PlainEliminator(Eliminator):
    """Reference: reduces every row offered, without the shortcut."""

    def add(self, row):
        row = self.reduce(row)
        if not row:
            return False
        self.pivots[min(row, key=repr)] = row
        return True


class CountingEliminator(Eliminator):
    def __init__(self):
        super().__init__()
        self.reductions = 0

    def reduce(self, row):
        self.reductions += 1
        return super().reduce(row)


def test_pivot_is_the_least_key_by_repr():
    # "10" < "9": the pivot follows repr order, not the keys' own order.
    elim = Eliminator()
    assert elim.add({9: 1, 10: 1})
    assert list(elim.pivots) == [10]
    assert elim.reduce({9: 2, 10: 1}) == {9: 1}


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
    # TraceSpace eliminates only residues, which valid relation rows never
    # leave; rows that are no relations give it some to eliminate.
    monkeypatch.setattr(lie, "_relation_row", no_relation_row)
    fast = {n: TraceSpace(n, extra_instances=20, rng=random.Random(70))
            for n in range(0, 5)}
    ranks = {n: lie_dim(n) for n in range(1, 6)}
    monkeypatch.setattr(lie, "Eliminator", PlainEliminator)
    for n in range(0, 5):
        plain = TraceSpace(n, extra_instances=20, rng=random.Random(70))
        assert isinstance(plain._residues, PlainEliminator)
        assert plain.basis == fast[n].basis
        assert list(plain._residues.pivots.items()) == \
            list(fast[n]._residues.pivots.items())
    # Saturated at n = 4: the rows after the sixth pivot skip reduction.
    assert fast[4].dim == 0 < fast[4]._residues.rank
    for n in range(1, 6):
        assert lie_dim(n) == ranks[n]


# -- the full-rank stop --------------------------------------------------------

def test_lie_dim_stops_at_full_rank(monkeypatch):
    # The rank reaches 5! = 120 after 473 of the 945 trees of 1..6; no later
    # tree is offered.
    offered = []

    class Offered(Eliminator):
        def add(self, row):
            offered.append(row)
            return super().add(row)

    monkeypatch.setattr(lie, "Eliminator", Offered)
    assert lie_dim(6) == 120
    assert len(offered) == 473


def test_lie_dim_is_the_rank_of_every_sorted_tree():
    for n in range(1, 7):
        plain = PlainEliminator()
        for t in lie._sorted_trees(tuple(range(1, n + 1))):
            plain.add(normalize(t))
        assert lie_dim(n) == plain.rank, n
