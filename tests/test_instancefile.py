"""Instance file encoding: canonical bytes and first-violation reporting."""

import json
import re

import numpy as np
import pytest

from nervemp.bench import (
    fixture_eg32,
    fixture_triangle,
    gen_random_cover,
    gen_random_quads,
)
from nervemp.errors import InvalidInstance
from nervemp.instancefile import (
    Instance,
    dumps,
    from_payload,
    load_instance,
    loads,
    save_instance,
)
from nervemp.solubility import linear_task, objective_task


def test_round_trip_bit_exact(tmp_path):
    inst = fixture_triangle()
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    text = path.read_text()
    save_instance(load_instance(path), path)
    assert path.read_text() == text


def test_round_trip_random_instance_with_tasks(tmp_path):
    cover = gen_random_cover(4, seed=1)
    quads = gen_random_quads(cover, 2)
    rng = np.random.default_rng(3)
    for task in (None, objective_task(),
                 linear_task(rng.standard_normal((2, cover.graph.n)), rng.standard_normal(2))):
        inst = Instance(cover=cover, quads=quads, task=task,
                        observations={v: 0.5 for v in cover.s_order})
        assert dumps(loads(dumps(inst))) == dumps(inst)


def test_reports_uncovered_node():
    bad = ('{"edges":[[0,1]],"nodes":3,"observables":[[0]],'
           '"quads":[{"A":[],"b":[0.0,0.0],"c":0.0,"vars":[0,1]}],"subgraphs":[[0,1]]}')
    with pytest.raises(InvalidInstance, match=r"\[2\] are not covered"):
        loads(bad)


def test_reports_shared_observable():
    bad = ('{"edges":[[0,1],[1,2]],"nodes":3,"observables":[[1],[]],'
           '"quads":[{"A":[],"b":[0.0,0.0],"c":0.0,"vars":[0,1]},'
           '{"A":[],"b":[0.0,0.0],"c":0.0,"vars":[1,2]}],'
           '"subgraphs":[[0,1],[1,2]]}')
    with pytest.raises(InvalidInstance, match="observable 1 of subgraph 0 also lies in subgraph 1"):
        loads(bad)


def test_reports_quad_count_mismatch():
    bad = ('{"edges":[],"nodes":1,"observables":[[0]],"quads":[],"subgraphs":[[0]]}')
    with pytest.raises(InvalidInstance, match="0 quadratics declared for 1 subgraphs"):
        loads(bad)


def test_reports_quad_outside_subgraph():
    bad = ('{"edges":[[0,1]],"nodes":2,"observables":[[]],'
           '"quads":[{"A":[],"b":[0.0],"c":0.0,"vars":[5]}],"subgraphs":[[0,1]]}')
    with pytest.raises(InvalidInstance, match=r"quadratic 0 uses nodes \[5\]"):
        loads(bad)


def test_reports_non_finite_task_entry():
    inst = fixture_triangle()
    task = linear_task(np.ones((2, inst.cover.graph.n)))
    payload = json.loads(dumps(Instance(cover=inst.cover, quads=inst.quads, task=task)))
    payload["task"]["L"][1][3] = float("nan")
    with pytest.raises(InvalidInstance, match=r"task matrix entry \(1, 3\) is not finite"):
        from_payload(payload)
    payload["task"]["L"][1][3] = 0.0
    payload["task"]["d"][0] = float("-inf")
    with pytest.raises(InvalidInstance, match=r"task offset entry \(0,\) is not finite"):
        from_payload(payload)


def test_rejects_non_json():
    with pytest.raises(InvalidInstance, match="not valid JSON"):
        loads("definitely { not json")


def _nested_b(depth):
    payload = json.loads(dumps(fixture_eg32()))
    payload["quads"][0]["b"] = "@"
    return json.dumps(payload).replace('"@"', "[" * depth + "1.0" + "]" * depth)


@pytest.mark.parametrize("text, message", [
    ("[" * 5000 + "]" * 5000, "JSON nested too deeply to decode"),
    (_nested_b(40), "quadratic 0: b has length 1, expected 4"),
], ids=["document-5000-deep", "b-40-deep"])
def test_rejects_deep_nesting(text, message):
    """The decoder's recursion limit and numpy's 32-axis iterators are
    reached by input, so both are reported as invalid input."""
    with pytest.raises(InvalidInstance, match=re.escape(message)):
        loads(text)


def test_sparse_triplets_only_store_upper_triangle():
    inst = fixture_triangle()
    payload = dumps(inst)
    data = loads(payload)
    for q0, q1 in zip(inst.quads, data.quads):
        assert np.array_equal(q0.A, q1.A)
        assert np.array_equal(q0.b, q1.b)


@pytest.mark.parametrize("path, value, message", [
    (("edges", 2, 1), 2.0, "edge 2 entry 1 is not an integer node id: 2.0"),
    (("edges", 0, 0), True, "edge 0 entry 0 is not an integer node id: True"),
    (("subgraphs", 1, 3), "6", "subgraph 1 entry 3 is not an integer node id: '6'"),
    (("observables", 0, 1), 1.5, "observable set 0 entry 1 is not an integer node id: 1.5"),
    (("observations", 0, 0), 0.7, "observation 0 names 0.7, not an integer node id"),
    (("observations", 3, 0), False, "observation 3 names False, not an integer node id"),
    (("quads", 1, "vars", 0), 3.0, "quadratic 1 vars entry 0 is not an integer node id: 3.0"),
])
def test_rejects_non_integer_node_id(path, value, message):
    payload = json.loads(dumps(fixture_eg32()))
    entry = payload
    for k in path[:-1]:
        entry = entry[k]
    entry[path[-1]] = value
    with pytest.raises(InvalidInstance, match=re.escape(message)):
        from_payload(payload)


def test_rejects_node_observed_twice():
    payload = json.loads(dumps(fixture_eg32()))
    payload["observations"].append([0, 99.0])
    with pytest.raises(InvalidInstance, match="observation 4 observes node 0 a second time"):
        from_payload(payload)


@pytest.mark.parametrize("path, value, message", [
    (("nodes",), 7.9, "node count 7.9 is not an integer"),
    (("nodes",), "7", "node count '7' is not an integer"),
    (("quads", 0, "A", 1, 1), True,
     "quadratic 0 triplet 1 entry 1 is not an integer node id: True"),
    (("quads", 0, "A", 1, 1), 1.0,
     "quadratic 0 triplet 1 entry 1 is not an integer node id: 1.0"),
    (("quads", 1, "A", 1), [0, 0, 0.5], "quadratic 1: triplet 1 repeats entry (0, 0)"),
    (("quads", 0, "b"), {"0": 0.0}, "malformed instance payload: TypeError"),
    (("quads", 0, "c"), [0.0], "malformed instance payload: TypeError"),
    (("quads",), 3, "malformed instance payload: TypeError"),
    (("quads", 0), {"A": [], "b": [], "c": 0.0}, "malformed instance payload: KeyError('vars')"),
    (("observations",), 5, "malformed instance payload: TypeError"),
    (("observations", 0, 1), None, "malformed instance payload: TypeError"),
    (("observations", 1, 0), 2, "observation 1 names node 2, which no subgraph observes"),
])
def test_rejects_malformed_payload(path, value, message):
    payload = json.loads(dumps(fixture_eg32()))
    entry = payload
    for k in path[:-1]:
        entry = entry[k]
    entry[path[-1]] = value
    with pytest.raises(InvalidInstance, match=re.escape(message)):
        from_payload(payload)


_NON_NUMBERS = [
    (path, value, f"{where} is {value!r}, not a number")
    for value in (True, "1.5")
    for path, where in [
        (("observations", 0, 1), "observation 0 at node 0"),
        (("quads", 0, "c"), "quadratic 0 c"),
        (("quads", 0, "b", 1), "quadratic 0 b entry (1,)"),
        (("quads", 1, "A", 0, 2), "quadratic 1 triplet 0 value"),
        (("task", "L", 0, 2), "task matrix entry (0, 2)"),
        (("task", "d", 0), "task offset entry (0,)"),
    ]
]


# The message already shows the value, so a case is named by path and message.
@pytest.mark.parametrize(
    "path, value, message", _NON_NUMBERS,
    ids=[f"path{k}-{message}" for k, (_, _, message) in enumerate(_NON_NUMBERS)],
)
def test_rejects_boolean_number(path, value, message):
    """float() reads a JSON true as 1.0 and parses the string "1.5"; every
    numeric entry refuses both."""
    payload = json.loads(dumps(fixture_eg32()))
    entry = payload
    for k in path[:-1]:
        entry = entry[k]
    entry[path[-1]] = value
    with pytest.raises(InvalidInstance, match=re.escape(message)):
        from_payload(payload)
