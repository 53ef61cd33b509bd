"""Instance files: JSON encoding of cover, quadratics, task and observations.

The encoding is canonical (sorted keys, no whitespace, repr-roundtrip
floats), so saving a loaded instance reproduces the file byte for byte.
Quadratic matrices are stored as sparse upper-triangle triplets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cover import Graph, SubgraphCover
from .errors import InvalidInstance
from .exactmp import _check_inputs
from .quadform import QuadFunc
from .solubility import TaskSpec


@dataclass(frozen=True)
class Instance:
    """A complete problem: cover, local quadratics, optional task and observations."""

    cover: SubgraphCover
    quads: tuple
    task: TaskSpec | None = None
    observations: dict | None = None


def _quad_payload(q: QuadFunc) -> dict:
    triplets = []
    n = len(q.vars)
    for i in range(n):
        for j in range(i, n):
            v = float(q.A[i, j])
            if v != 0.0:
                triplets.append([i, j, v])
    return {
        "vars": list(q.vars),
        "A": triplets,
        "b": [float(x) for x in q.b],
        "c": float(q.c),
    }


def _node_ids(values, where: str) -> list:
    """`values` as a list, each entry a JSON integer (a bool is not)."""
    ids = list(values)
    for k, v in enumerate(ids):
        if type(v) is not int:
            raise InvalidInstance(f"{where} entry {k} is not an integer node id: {v!r}")
    return ids


def _number(value, where: str) -> float:
    """float(value) for a JSON int or float.  A true/false or a string is
    refused, although float() reads them as 1.0/0.0 or parses them."""
    if type(value) is bool or type(value) is str:
        raise InvalidInstance(f"{where} is {value!r}, not a number")
    return float(value)


def _floats(raw, where: str) -> np.ndarray:
    """np.array(raw, dtype=float), each entry also checked by `_number`."""
    values = np.array(raw, dtype=float)
    # np.ndindex takes every shape np.array builds; np.ndenumerate stops at 32 axes.
    for at, v in zip(np.ndindex(values.shape), np.array(raw, dtype=object).ravel()):
        _number(v, f"{where} entry {at}")
    return values


def _quad_from_payload(payload: dict, index: int) -> QuadFunc:
    variables = tuple(_node_ids(payload["vars"], f"quadratic {index} vars"))
    n = len(variables)
    A = np.zeros((n, n))
    seen = set()
    for k, (i, j, v) in enumerate(payload["A"]):
        _node_ids((i, j), f"quadratic {index} triplet {k}")
        if not (0 <= i <= j < n):
            raise InvalidInstance(
                f"quadratic {index}: triplet ({i}, {j}) outside upper triangle of size {n}"
            )
        if (i, j) in seen:
            raise InvalidInstance(f"quadratic {index}: triplet {k} repeats entry ({i}, {j})")
        seen.add((i, j))
        A[i, j] = A[j, i] = _number(v, f"quadratic {index} triplet {k} value")
    b = _floats(payload["b"], f"quadratic {index} b")
    if b.shape != (n,):
        raise InvalidInstance(f"quadratic {index}: b has length {b.shape[0]}, expected {n}")
    try:
        c = _number(payload["c"], f"quadratic {index} c")
        return QuadFunc(variables, A, b, c)
    except ValueError as exc:
        raise InvalidInstance(f"quadratic {index}: {exc}") from exc


def to_payload(instance: Instance) -> dict:
    cover = instance.cover
    payload = {
        "nodes": cover.graph.n,
        "edges": [list(e) for e in cover.graph.edges],
        "subgraphs": [list(s) for s in cover.subgraphs],
        "observables": [list(s) for s in cover.observables],
        "quads": [_quad_payload(q) for q in instance.quads],
    }
    if instance.task is not None:
        if instance.task.kind == "linear":
            payload["task"] = {
                "kind": "linear",
                "L": [[float(x) for x in row] for row in instance.task.L],
                "d": [float(x) for x in instance.task.d],
            }
        else:
            payload["task"] = {"kind": "objective_value"}
    if instance.observations is not None:
        payload["observations"] = [
            [int(v), float(instance.observations[v])]
            for v in sorted(instance.observations)
        ]
    return payload


def from_payload(payload: dict) -> Instance:
    """Instance from a decoded payload; anything malformed raises InvalidInstance."""
    try:
        n = payload["nodes"]
        if type(n) is not int:
            raise InvalidInstance(f"node count {n!r} is not an integer")
        edges = [tuple(_node_ids(e, f"edge {k}")) for k, e in enumerate(payload["edges"])]
        subgraphs = [_node_ids(s, f"subgraph {i}") for i, s in enumerate(payload["subgraphs"])]
        observables = [
            _node_ids(s, f"observable set {i}") for i, s in enumerate(payload["observables"])
        ]
        cover = SubgraphCover(Graph(n, edges), subgraphs, observables)
        quads = tuple(_quad_from_payload(qp, i) for i, qp in enumerate(payload.get("quads", [])))
        _check_inputs(cover, quads)
        task = None
        if "task" in payload:
            tp = payload["task"]
            if tp["kind"] == "linear":
                L = _floats(tp["L"], "task matrix")
                if L.ndim != 2 or L.shape[1] != n:
                    raise InvalidInstance(f"task matrix has shape {L.shape}, expected (*, {n})")
                d = _floats(tp["d"], "task offset")
                for name, values in (("matrix", L), ("offset", d)):
                    bad = np.argwhere(~np.isfinite(values))
                    if bad.size:
                        where = tuple(bad[0].tolist())
                        raise InvalidInstance(f"task {name} entry {where} is not finite")
                task = TaskSpec(kind="linear", L=L, d=d)
            elif tp["kind"] == "objective_value":
                task = TaskSpec(kind="objective_value")
            else:
                raise InvalidInstance(f"unknown task kind {tp['kind']!r}")
        observations = None
        if "observations" in payload:
            observations = {}
            for k, (v, val) in enumerate(payload["observations"]):
                if type(v) is not int:
                    raise InvalidInstance(f"observation {k} names {v!r}, not an integer node id")
                if v in observations:
                    raise InvalidInstance(f"observation {k} observes node {v} a second time")
                if not (0 <= v < n):
                    raise InvalidInstance(f"observation {k} names undeclared node {v}")
                if v not in cover.observable_set:
                    raise InvalidInstance(
                        f"observation {k} names node {v}, which no subgraph observes"
                    )
                val = _number(val, f"observation {k} at node {v}")
                if not math.isfinite(val):
                    raise InvalidInstance(f"observation {k} at node {v} is not finite: {val!r}")
                observations[v] = val
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InvalidInstance(f"malformed instance payload: {exc!r}") from exc
    return Instance(cover=cover, quads=quads, task=task, observations=observations)


# The one canonical JSON encoding of every file nervemp writes.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def write_json(path, payload) -> None:
    """Write `payload` in the canonical encoding, with a final newline."""
    Path(path).write_text(_CANONICAL.encode(payload) + "\n")


def dumps(instance: Instance) -> str:
    return _CANONICAL.encode(to_payload(instance))


def loads(text: str) -> Instance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstance(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidInstance(f"JSON nested too deeply to decode: {exc}") from exc
    return from_payload(payload)


def save_instance(instance: Instance, path) -> None:
    write_json(path, to_payload(instance))


def load_instance(path) -> Instance:
    return loads(Path(path).read_text())
