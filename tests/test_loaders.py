"""Property tests for the four JSON loaders: a mutated valid object loads or
fails with a ``WirecatError``, and dumping what loaded is idempotent."""
import json
import random

import pytest
from hypothesis import given, strategies as st

from wirecat import endo, graphs, wiring, wprop
from wirecat.errors import WirecatError
from wirecat.sampling import (
    endo_sampler,
    free_sampler,
    random_graph,
    random_wiring_diagram,
)

SIG = wprop.Signature({"f": (2, 1), "g": (1, 2)})

#: kind -> (a valid object drawn from a seeded generator, loader, writer)
KINDS = {
    "wd": (lambda rng: wiring.to_obj(random_wiring_diagram(rng)),
           wiring.from_obj, wiring.to_obj),
    "graph": (lambda rng: graphs.to_obj(random_graph(rng)),
              graphs.from_obj, graphs.to_obj),
    "element": (lambda rng: wprop.to_obj(free_sampler(SIG)(rng)),
                wprop.from_obj, wprop.to_obj),
    "tensor": (lambda rng: endo.to_obj(endo_sampler(rng.randint(1, 2))(rng)),
               endo.from_obj, endo.to_obj),
}

KEYS = st.sampled_from(sorted({k for obj in (
    {"in", "out", "terms", "coeff", "graph", "decor"},
    {"vertices", "exceptional", "iota", "pi", "delta", "lambda", "beta", "loops"},
    {"output", "inputs", "matching", "circles"},
    {"dim", "axes", "data"}) for k in obj} | {"zz"}))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 12),
                    st.sampled_from([0.5, 1.0, "1/0", "1/2", "in", "out", "a", "zz", ""]))
JSON = st.recursive(SCALARS, lambda kids: st.lists(kids, max_size=3)
                    | st.dictionaries(KEYS, kids, max_size=3), max_leaves=6)


@st.composite
def mutated(draw, x):
    """``x`` with one value somewhere in it replaced, dropped, repeated or
    added to."""
    if isinstance(x, (list, dict)) and x and draw(st.integers(0, 3)):
        k = draw(st.sampled_from(range(len(x)) if isinstance(x, list) else sorted(x)))
        x = x.copy()
        x[k] = draw(mutated(x[k]))
        return x
    how = draw(st.sampled_from(["replace", "drop", "repeat", "add"]))
    if how == "replace" or not isinstance(x, (list, dict)) or not x:
        return draw(JSON)
    x = x.copy()
    if isinstance(x, dict):
        if how == "add":
            x[draw(KEYS)] = draw(JSON)
        else:
            del x[draw(st.sampled_from(sorted(x)))]
        return x
    k = draw(st.integers(0, len(x) - 1))
    if how == "drop":
        del x[k]
    else:
        x.insert(k, x[k] if how == "repeat" else draw(JSON))
    return x


def objects(kind):
    """Valid objects of ``kind``, and mutations of them."""
    valid = st.integers(0, 2 ** 16).map(lambda s: KINDS[kind][0](random.Random(s)))
    return valid.flatmap(lambda x: st.one_of(st.just(x), mutated(x)))


@pytest.mark.parametrize("kind", list(KINDS))
@given(data=st.data())
def test_a_mutated_object_loads_or_names_its_error(kind, data):
    _, load, _ = KINDS[kind]
    try:
        load(data.draw(objects(kind)))
    except WirecatError:
        pass


@pytest.mark.parametrize("kind", list(KINDS))
@given(data=st.data())
def test_dumping_what_loaded_is_idempotent(kind, data):
    _, load, dump = KINDS[kind]
    try:
        once = dump(load(data.draw(objects(kind))))
    except WirecatError:
        return
    text = json.dumps(once, sort_keys=True)
    assert json.dumps(dump(load(once)), sort_keys=True) == text
