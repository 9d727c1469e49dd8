"""Bit-exact instance files and DOT export.

Instances are UTF-8 JSON with all rationals encoded as lowest-terms "p/q"
strings (plain "p" for integers); JSON numbers cannot represent exact
fractions. `parse` reads each distinct string once, with `as_rational`:
an optional sign, ASCII digits and an optional "/digits", nothing else.
Keys are emitted sorted and lists in canonical order, so serialization is
byte-stable and parse(serialize(x)) reproduces x.
One file may carry both an instance and a penalty configuration, making
solver outputs self-contained and replayable.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from fractions import Fraction
from typing import Any, Iterable

from .errors import InstanceSyntaxError, SchemaError, UnknownEdgeError, ValidationError
from .graph import CostConfiguration, TaskGraph, as_rational, validate
from .instances import Instance

SCHEMA_VERSION = 1


def format_rational(value: Fraction) -> str:
    return str(as_rational(value))


def parse_rational(text: Any, where: str, known: dict[str, Fraction]) -> Fraction:
    """The value of a rational string of the document, parsed once per string.

    `known` maps each string already read to its value, so equal strings
    share one Fraction; a new string goes to `as_rational`."""
    if not isinstance(text, str):
        raise SchemaError(f"{where}: rational must be a string, got {text!r}")
    value = known.get(text)
    if value is None:
        try:
            value = known[text] = as_rational(text)
        except ValueError:
            raise SchemaError(f"{where}: not a rational: {text!r}") from None
    return value


# one list item each, at the indentation of a list that is a top-level value
_NODE = '    {\n      "id": %d\n    }'
_LABELED_NODE = '    {\n      "id": %d,\n      "label": %s\n    }'
_EDGE = '    {\n      "cost": "%s",\n      "from": %d,\n      "to": %d\n    }'
_EXTRA = '    {\n      "extra": "%s",\n      "from": %d,\n      "to": %d\n    }'


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def serialize(instance: Instance, config: CostConfiguration | None = None) -> str:
    """Canonical JSON document for an instance (and optionally a config).

    The text is written directly; it is byte-identical to
    `json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)` of the
    document as a dict, plus a final newline. That encoder runs in pure
    Python with an indent and is several times slower. A configuration that
    names an edge the graph lacks raises UnknownEdgeError.
    """
    graph = instance.graph
    if config is not None:
        config.check_for(graph)
    fields = {
        "schema_version": str(SCHEMA_VERSION),
        "nodes": _json_list([
            _NODE % i if label is None else _LABELED_NODE % (i, encode_basestring(label))
            for i, label in enumerate(graph.labels)
        ]),
        "edges": _json_list([
            _EDGE % (format_rational(e.cost), e.tail, e.head)
            for e in sorted(graph.edges, key=lambda e: (e.tail, e.head))
        ]),
        "source": str(graph.source),
        "target": str(graph.target),
        "beta": f'"{format_rational(instance.beta)}"',
    }
    if instance.reward is not None:
        fields["reward"] = f'"{format_rational(instance.reward)}"'
    if config is not None:
        fields["extra_costs"] = _json_list([
            _EXTRA % (format_rational(x), u, v) for (u, v), x in sorted(config.items())
        ])
    if instance.annotations is not None:
        # nested one level deeper than json.dumps puts a top-level value
        fields["annotations"] = json.dumps(
            instance.annotations, sort_keys=True, indent=2, ensure_ascii=False
        ).replace("\n", "\n  ")
    body = ",\n".join(f'  "{key}": {fields[key]}' for key in sorted(fields))
    return "{\n" + body + "\n}\n"


def _require(doc: dict, key: str, kind: type, where: str = "document") -> Any:
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise SchemaError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def parse(text: str, *, check: bool = True) -> tuple[Instance, CostConfiguration | None]:
    """Inverse of serialize. With check=True, graph invariants are enforced.

    Raises InstanceSyntaxError for malformed JSON (with line/column),
    SchemaError for structural problems, and ValidationError when the graph
    breaks task-graph invariants.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceSyntaxError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno, column=exc.colno) from None
    if not isinstance(doc, dict):
        raise SchemaError("document root must be an object")
    version = _require(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}")

    raw_nodes = _require(doc, "nodes", list)
    labels: list[str | None] = [None] * len(raw_nodes)
    seen_ids: set[int] = set()
    for entry in raw_nodes:
        if not isinstance(entry, dict):
            raise SchemaError("nodes entries must be objects")
        node_id = _require(entry, "id", int, "node")
        if not 0 <= node_id < len(raw_nodes) or node_id in seen_ids:
            raise SchemaError(f"node ids must be dense and unique; offending id {node_id}")
        seen_ids.add(node_id)
        labels[node_id] = entry.get("label")

    known: dict[str, Fraction] = {}
    raw_edges = _require(doc, "edges", list)
    edges: list[tuple[int, int, Fraction]] = []
    for entry in raw_edges:
        if not isinstance(entry, dict):
            raise SchemaError("edges entries must be objects")
        tail = _require(entry, "from", int, "edge")
        head = _require(entry, "to", int, "edge")
        cost = parse_rational(_require(entry, "cost", object, "edge"), "edge cost", known)
        edges.append((tail, head, cost))

    source = _require(doc, "source", int)
    target = _require(doc, "target", int)
    beta_raw = parse_rational(_require(doc, "beta", object), "beta", known)
    if not 0 < beta_raw <= 1:
        raise SchemaError(f"beta must lie in (0, 1], got {beta_raw}")

    reward = None
    if "reward" in doc:
        reward = parse_rational(doc["reward"], "reward", known)
        if reward < 0:
            raise SchemaError(f"reward must be nonnegative, got {reward}")

    annotations = None
    if "annotations" in doc:
        if not isinstance(doc["annotations"], dict):
            raise SchemaError("annotations must be an object")
        annotations = doc["annotations"]

    # the constructors check node ids, labels and extras: a ValueError or an
    # UnknownEdgeError there is a SchemaError here
    try:
        graph = TaskGraph(len(raw_nodes), edges, source, target, labels)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None

    config = None
    if "extra_costs" in doc:
        raw_extras = doc["extra_costs"]
        if not isinstance(raw_extras, list):
            raise SchemaError("extra_costs must be a list")
        extra: dict[tuple[int, int], Fraction] = {}
        for entry in raw_extras:
            if not isinstance(entry, dict):
                raise SchemaError("extra_costs entries must be objects")
            tail = _require(entry, "from", int, "extra")
            head = _require(entry, "to", int, "extra")
            value = parse_rational(_require(entry, "extra", object, "extra"), "extra cost",
                                   known)
            if (tail, head) in extra:
                raise SchemaError(f"duplicate extra cost for edge ({tail}, {head})")
            extra[(tail, head)] = value
        try:
            config = CostConfiguration(extra, graph)
        except (ValueError, UnknownEdgeError) as exc:
            raise SchemaError(str(exc)) from None

    if check:
        violations = validate(graph)
        if violations:
            raise ValidationError(violations)

    instance = Instance(graph=graph, beta=beta_raw, reward=reward, annotations=annotations)
    return instance, config


_DOT_ESCAPES = str.maketrans({'"': '\\"', "\\": "\\\\"})


def _dot_quote(text: str) -> str:
    return '"' + text.translate(_DOT_ESCAPES) + '"'


def to_dot(instance: Instance,
           config: CostConfiguration | None = None,
           highlight: Iterable[int] | None = None) -> str:
    """Deterministic DOT rendering; edge labels show cost and any extra.

    A configuration that names an edge the graph lacks raises UnknownEdgeError.
    """
    graph = instance.graph
    if config is not None:
        config.check_for(graph)
    path_nodes = list(highlight) if highlight is not None else []
    path_edges = set(zip(path_nodes, path_nodes[1:]))
    path_set = set(path_nodes)
    lines = ["digraph task_graph {", "  rankdir=LR;"]
    for v in range(graph.n):
        attrs = [f"label={_dot_quote(graph.describe_node(v))}"]
        if v == graph.source or v == graph.target:
            attrs.append("shape=doublecircle")
        if v in path_set:
            attrs.append("color=red")
        lines.append(f"  {v} [{' '.join(attrs)}];")
    for e in sorted(graph.edges, key=lambda e: (e.tail, e.head)):
        label = format_rational(e.cost)
        if config is not None:
            bump = config.get(e.tail, e.head)
            if bump != 0:
                label += f" (+{format_rational(bump)})"
        attrs = [f"label={_dot_quote(label)}"]
        if (e.tail, e.head) in path_edges:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        lines.append(f"  {e.tail} -> {e.head} [{' '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
