"""Every public int parameter refuses a float, a bool and a str by name.

The parameters come from the annotations: each `int` parameter of a
callable in `wildquery.__all__` and of a public method of `ChordNetwork`,
`Trie` and `QueryPattern`. A new public function therefore joins the
table by its annotation, and fails until VALID gives it working
arguments. The `seed` parameters take any value `random.Random` accepts,
so they stay out.
"""

import inspect
import random
import re
from functools import cached_property

import pytest

import wildquery
from wildquery import ChordNetwork, QueryPattern, Trie, build_network

# one small working call per callable, by qualified name
VALID = {
    "Trie": dict(k=2, m=3),
    "complete_trie": dict(k=2, m=3),
    "random_trie": dict(k=2, m=3, population=4, seed=1),
    "enumerate_configurations": dict(m=4, w=2),
    "sample_configuration": dict(m=4, w=2, rng=random.Random(1)),
    "binomial_convolution_identity": dict(m=4, w=2, j=1),
    "config_step_bound": dict(m=4, w=2, positions=(1, 3), k=2),
    "mean_step_bound": dict(m=4, w=2, k=2),
    "mean_step_bound_hypergeometric": dict(m=4, w=2, k=2),
    "wildcard_position_pmf": dict(m=4, w=2, z=1, j=1),
    "ChordNetwork": dict(m=4, node_keys=[1, 5, 9]),
    "build_network": dict(n=3, m=4, seed=1),
    "ChordNetwork.successor_of": dict(d=3),
    "ChordNetwork.distribute_entries": dict(count=10, seed=1),
    "ChordNetwork.lookup": dict(d=3, start=0),
    "ChordNetwork.wildcard_query": dict(
        pattern=QueryPattern.from_string("1*0*"), start=0
    ),
    "Trie.insert": dict(key=3),
    "Trie.contains": dict(key=3),
    "QueryPattern.from_configuration": dict(m=4, positions=(1,)),
    "QueryPattern.expansions": dict(k=2),
}

# the objects whose public methods are called, each at a small size
INSTANCES = {
    ChordNetwork: lambda: build_network(3, 4, 1),
    Trie: lambda: Trie(2, 3),
    QueryPattern: lambda: QueryPattern.from_string("1*0*"),
}

# parameters whose refusal names them in words
SPOKEN = {"d": "data key", "start": "start node"}

BAD = [2.0, True, "2"]


def _callables():
    """(qualified name, factory of the callable) for every public one."""
    for name in wildquery.__all__:
        obj = getattr(wildquery, name)
        # exceptions and the NamedTuple result records validate nothing
        if not callable(obj) or (
            isinstance(obj, type) and issubclass(obj, (Exception, tuple))
        ):
            continue
        yield name, (lambda obj=obj: obj)
    for cls, make in INSTANCES.items():
        for name, attr in vars(cls).items():
            if name.startswith("_") or isinstance(
                attr, (property, cached_property)
            ):
                continue
            if isinstance(attr, classmethod):
                yield f"{cls.__name__}.{name}", (
                    lambda cls=cls, name=name: getattr(cls, name)
                )
            else:
                yield f"{cls.__name__}.{name}", (
                    lambda make=make, name=name: getattr(make(), name)
                )


def _int_parameters():
    cases = []
    for qualname, get in _callables():
        for param in inspect.signature(get()).parameters.values():
            if param.annotation in ("int", int) and param.name != "seed":
                cases.append(pytest.param(
                    qualname, get, param.name, id=f"{qualname}-{param.name}"
                ))
    return cases


INT_PARAMETERS = _int_parameters()


def test_the_table_finds_the_int_parameters():
    found = {case.values[0] for case in INT_PARAMETERS}
    assert {"Trie", "build_network", "ChordNetwork.lookup",
            "QueryPattern.expansions"} <= found
    assert len(INT_PARAMETERS) >= 30


@pytest.mark.parametrize("qualname, get, name", INT_PARAMETERS)
def test_int_parameter_refuses_a_float_a_bool_and_a_str(qualname, get, name):
    assert qualname in VALID, f"give VALID a small working call of {qualname}"
    args = VALID[qualname]
    get()(**args)  # the working call runs
    spoken = SPOKEN.get(name, name)
    for bad in BAD:
        with pytest.raises(TypeError) as caught:
            get()(**{**args, name: bad})
        assert re.search(
            rf"\b{re.escape(spoken)} must be an int", str(caught.value)
        ), (bad, str(caught.value))
