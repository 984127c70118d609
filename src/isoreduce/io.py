"""File formats: graphs (edge list and JSON), deltas, state directories, reports.

Edge-list format: a header line ``N <count>`` followed by one edge per line,
``i j re [im]``.  The JSON alternative is ``{"n": ..., "edges": [[i, j, re,
im], ...]}`` with optional ``stochastic`` and ``removed`` keys.  All modules
share these formats.  Both are read through :func:`graph_from_dict`; a state
file keeps its arrays in binary (see :func:`save_state`).
"""

from __future__ import annotations

import base64
import json
import os
from typing import Iterable

import numpy as np

from .exceptions import GraphFormatError, NonStochasticError, StructuralSetError
from .graph import WeightedDigraph, _real, _vertex_id, compute_depths
from .reduction import extended_columns
from .update import DeltaOp, GraphDelta, StoredState


def parse_edgelist(text: str) -> dict:
    """An edge-list text as the JSON graph object that :func:`graph_from_dict` reads."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise GraphFormatError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "N":
        raise GraphFormatError(f"expected header 'N <count>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad vertex count {head[1]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) not in (3, 4):
            raise GraphFormatError(f"expected 'i j re [im]', got {ln!r}")
        try:
            edges.append([int(parts[0]), int(parts[1]), *map(float, parts[2:])])
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {ln!r}") from exc
    return {"n": n, "edges": edges}


def _edge_rows(graph: WeightedDigraph) -> list[tuple[int, int, float, float]]:
    """``(i, j, re, im)`` for every edge in ``(i, j)`` order, read off the
    graph's kept edge arrays without building the weight map."""
    i, j, w = graph.edge_arrays
    return list(zip(i.tolist(), j.tolist(), w.real.tolist(), w.imag.tolist()))


def render_edgelist(graph: WeightedDigraph) -> str:
    lines = [f"N {graph.n_vertices}"]
    for i, j, re, im in _edge_rows(graph):
        if im:
            lines.append(f"{i} {j} {re!r} {im!r}")
        else:
            lines.append(f"{i} {j} {re!r}")
    return "\n".join(lines) + "\n"


def graph_to_dict(graph: WeightedDigraph) -> dict:
    out = {"n": graph.n_vertices, "edges": [list(row) for row in _edge_rows(graph)]}
    if graph.stochastic:
        out["stochastic"] = True
    if graph.removed:
        out["removed"] = sorted(graph.removed)
    return out


def _read_text(path: str) -> str:
    """Read one UTF-8 text file; bytes that do not decode are a format error."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_json(path: str):
    """Read and decode one JSON file; invalid JSON is a format error."""
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"{path}: invalid JSON: {exc}") from exc


def _edge_row(entry) -> tuple:
    """``(i, j, weight)`` from a JSON edge entry ``[i, j, re, im]`` or
    ``[i, j, re]``; both parts are read by :func:`_real`."""
    try:
        i, j, re, im = entry
    except ValueError:
        i, j, re = entry
        im = 0.0
    return i, j, complex(_real(re), _real(im))


def graph_from_dict(data: dict, *, stochastic: bool | None = None) -> WeightedDigraph:
    """Build a graph from its JSON object; any fault, including one the
    graph's own construction finds, is a format error.  A ``stochastic``
    key must hold a JSON boolean, even where the ``stochastic`` argument
    overrides it."""
    try:
        flag = data.get("stochastic", False)
        if type(flag) is not bool:
            raise ValueError(f"stochastic flag {flag!r} is not a JSON boolean")
        return WeightedDigraph.from_edges(
            data["n"], map(_edge_row, data["edges"]), removed=data.get("removed", ()),
            stochastic=flag if stochastic is None else stochastic)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GraphFormatError(f"bad graph object: {exc}") from exc


def read_graph(path: str, *, stochastic: bool | None = None) -> WeightedDigraph:
    """Load a graph from an edge-list or JSON file (by extension)."""
    data = _read_json(path) if path.endswith(".json") else parse_edgelist(_read_text(path))
    return graph_from_dict(data, stochastic=stochastic)


def write_graph(graph: WeightedDigraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if path.endswith(".json"):
            fh.write(dumps(graph_to_dict(graph)))
        else:
            fh.write(render_edgelist(graph))


def delta_to_dict(delta: GraphDelta) -> dict:
    """Each op as ``{"op": kind}`` plus its ``DeltaOp.FIELDS``."""
    return {"ops": [{"op": op.kind, **{name: getattr(op, name) for name in op.FIELDS[op.kind]}}
                    for op in delta.ops]}


def delta_from_dict(data: dict) -> GraphDelta:
    """Parse ``{"ops": [...]}``; ``w`` is read by :func:`_real` and every
    other field as a vertex id."""
    try:
        ops = []
        for entry in data["ops"]:
            kind = entry["op"]
            ops.append(DeltaOp(kind, **{
                name: (_real if name == "w" else _vertex_id)(entry[name])
                for name in DeltaOp.FIELDS.get(kind, ())}))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GraphFormatError(f"bad delta object: {exc}") from exc
    return GraphDelta(tuple(ops))


def read_delta(path: str) -> GraphDelta:
    return delta_from_dict(_read_json(path))


def write_delta(delta: GraphDelta, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(delta_to_dict(delta)))


def vector_to_dict(vertices: Iterable[int], values, normalization: str,
                   lam: complex | None = None) -> dict:
    vals = [[complex(v).real, complex(v).imag] for v in np.asarray(values).ravel()]
    out = {"vertices": list(vertices), "values": vals, "normalization": normalization}
    if lam is not None:
        out["lambda"] = [complex(lam).real, complex(lam).imag]
    return out


def vector_from_dict(data: dict) -> tuple[list[int], np.ndarray, str, complex | None]:
    """``(vertices, values, normalization, lambda)`` of a vector object; a
    value or lambda part that is not a number (see :func:`_real`) or not
    finite is a format error."""
    try:
        vertices = [_vertex_id(v) for v in data["vertices"]]
        values = np.array([complex(_real(a), _real(b)) for a, b in data["values"]])
        norm = data.get("normalization", "none")
        lam = None
        if "lambda" in data:
            lam = complex(_real(data["lambda"][0]), _real(data["lambda"][1]))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise GraphFormatError(f"bad vector object: {exc}") from exc
    if not (np.isfinite(values).all() and np.isfinite(0 if lam is None else lam)):
        raise GraphFormatError("vector object holds a non-finite value or lambda")
    return vertices, values, norm, lam


def read_vector(path: str):
    return vector_from_dict(_read_json(path))


def _write_json(path: str, obj) -> None:
    """Write one state file as a single line of compact, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


#: The binary arrays of a state file and their little-endian dtypes.
STATE_ARRAYS = {"tails": "<i8", "heads": "<i8", "weights": "<f8",
                "reduced_vector": "<f8", "full_vector": "<f8"}


def save_state(state: StoredState, dirpath: str) -> None:
    """Persist a stored state as one compact JSON line, ``dirpath/state.json``.

    Only what cannot be recomputed is written: ``n``, ``removed``,
    ``members`` and ``eig_converged`` as JSON, and the graph's
    ``edge_arrays`` and both vectors as the base64 text of their
    little-endian bytes (:data:`STATE_ARRAYS`).  The member columns
    ``E[:, S]`` are fixed by the graph and the set, and a stored state
    always sits at parameter 1, so :func:`load_state` rebuilds both.

    The file is written to a new hidden sibling of ``dirpath`` (with
    symbolic links resolved), so the parent directory must be writable, and
    one ``os.replace`` puts it in place; a missing ``dirpath`` is created.
    A save that raises removes what it made, so it leaves ``dirpath``, or
    its absence, as it was.  A reader sees the old file or the new one,
    never a part of either.  The file is not synced to disk, so a power loss
    can still lose the latest save.

    Raises:
        FileExistsError: ``dirpath`` exists and is not a directory that holds
            nothing but ``state.json``; it is left alone.
    """
    target = os.path.realpath(dirpath)
    if os.path.exists(target) and not (
            os.path.isdir(target) and set(os.listdir(target)) <= {"state.json"}):
        raise FileExistsError(f"{dirpath} is not a state directory; not overwriting it")
    made = not os.path.isdir(target)
    os.makedirs(target, exist_ok=True)
    parent, name = os.path.split(target)
    tmp = os.path.join(parent, f".{name}.{os.urandom(8).hex()}")
    graph = state.graph
    arrays = (*graph.edge_arrays, state.reduced_vector, state.full_vector)
    try:
        _write_json(tmp, {"n": graph.n_vertices, "removed": sorted(graph.removed),
                          "members": list(state.structural.members),
                          "eig_converged": state.eig_converged,
                          **{key: base64.b64encode(np.asarray(a, dtype).tobytes()).decode()
                             for (key, dtype), a in zip(STATE_ARRAYS.items(), arrays)}})
        os.replace(tmp, os.path.join(target, "state.json"))
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        if made:
            os.rmdir(target)
        raise


def load_state(dirpath: str) -> StoredState:
    """Read a state directory's ``state.json`` back, rejecting parts that do
    not fit its graph.

    The graph is built as stochastic by ``WeightedDigraph.from_edge_arrays``,
    the depths are taken over the stored members at parameter 1, and the
    member columns ``E[:, S]`` are recomputed by the same sweep that built
    them, so the state comes back bit-identical.

    Raises:
        GraphFormatError: the file is missing, malformed, not a JSON object
            or in the text layout of earlier saves, a key is missing, an
            array is not base64 text of whole 8-byte values, the graph does
            not build as a stochastic graph, the structural members are empty or not integers, a
            member is not an active vertex, the members are not structural
            for the graph (the message names a cycle that avoids them),
            ``eig_converged`` is not a JSON boolean, or a vector has the
            wrong length or a non-finite entry.
    """
    try:
        doc = _read_json(os.path.join(dirpath, "state.json"))
    except FileNotFoundError as exc:
        raise GraphFormatError(f"{dirpath} holds no state.json") from exc
    if isinstance(doc, dict) and "graph" in doc:
        raise GraphFormatError(f"{dirpath}: state.json is in the text layout of earlier "
                               "saves, which is no longer read")
    try:
        tails, heads, weights, reduced, full = (
            np.frombuffer(base64.b64decode(doc[key], validate=True), dtype).copy()
            for key, dtype in STATE_ARRAYS.items())
        graph = WeightedDigraph.from_edge_arrays(doc["n"], tails, heads, weights,
                                                 stochastic=True, removed=doc["removed"])
        members = list(doc["members"])
        if not all(type(v) is int for v in members):
            raise GraphFormatError(f"structural members {members} are not all integers")
        structural = compute_depths(graph, members, 1.0)
        converged = doc["eig_converged"]
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            NonStochasticError) as exc:
        raise GraphFormatError(f"{dirpath}: bad state file: {exc!r}") from exc
    except StructuralSetError as exc:
        raise GraphFormatError(f"{dirpath}: stored members do not fit the graph: {exc}") from exc
    if type(converged) is not bool:
        raise GraphFormatError(f"{dirpath}: eig_converged is {converged!r}, not a JSON boolean")
    if not (np.isfinite(reduced).all() and np.isfinite(full).all()):
        raise GraphFormatError(f"{dirpath}: a stored vector holds a non-finite entry")
    if reduced.shape != (len(structural.members),):
        raise GraphFormatError(f"reduced vector has {reduced.size} entries, "
                               f"the structural set {len(structural.members)}")
    n = graph.n_vertices
    if full.shape != (n,):
        raise GraphFormatError(f"full vector has {full.size} entries, the graph {n}")
    return StoredState(graph, structural, extended_columns(graph, structural),
                       reduced, full, converged)


def dumps(obj) -> str:
    """Deterministic indented JSON for reports, CLI output, graph and delta files."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def render_table(obj, indent: int = 0) -> str:
    """Plain-text rendering of a nested report dictionary."""
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(render_table(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
    elif isinstance(obj, list):
        for t, val in enumerate(obj):
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}[{t}]")
                lines.append(render_table(val, indent + 1))
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{obj}")
    return "\n".join(lines)
