"""Seeded N-Triples views for the pipeline benchmark (standard library only).

The shape follows the paper's multi-view setting: each view draws edges over
a vertex pool of which a fraction (`overlap`) is shared by all views, from a
predicate alphabet, and types each pool vertex with probability `type_prob`
from a class alphabet. A share of the edge objects (`literal_share`) are
plain, language-tagged or xsd-typed ASCII literals without escapes.

A view is returned both as its N-Triples text and as the per-vertex
(attributes, classes) map the oracle needs, so the oracle never parses text
that the program under test also reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
XSD = "http://www.w3.org/2001/XMLSchema#"


@dataclass(frozen=True)
class Shape:
    edges: int
    vertices: int
    overlap: float
    predicates: int
    classes: int
    type_prob: float
    literal_share: float


@dataclass
class View:
    text: str
    lines: int
    # vertex IRI -> (set of predicate IRIs, set of class IRIs)
    schema: dict[str, tuple[set[str], set[str]]]


def _literal(rng: random.Random, k: int) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return f'"value {k}"'
    if kind == 1:
        return f'"label {k}"@en'
    if kind == 2:
        return f'"{k}"^^<{XSD}integer>'
    return f'"2024-{1 + k % 12:02d}-{1 + k % 28:02d}"^^<{XSD}date>'


def make_view(shape: Shape, seed: int, tag: str, index: int) -> View:
    """View `index` of a workload; equal (seed, tag, index) give equal bytes."""
    rng = random.Random(f"{seed}:{tag}:{index}")
    n_shared = round(shape.overlap * shape.vertices)
    pool = [f"urn:bench:vertex:s{k}" for k in range(n_shared)]
    pool += [f"urn:bench:vertex:v{index}-{k}" for k in range(shape.vertices - n_shared)]
    preds = [f"urn:bench:pred:p{k}" for k in range(shape.predicates)]
    classes = [f"urn:bench:class:c{k}" for k in range(shape.classes)]
    schema: dict[str, tuple[set[str], set[str]]] = {}
    out: list[str] = []
    for _ in range(shape.edges):
        s = rng.choice(pool)
        p = rng.choice(preds)
        schema.setdefault(s, (set(), set()))[0].add(p)
        if rng.random() < shape.literal_share:
            o = _literal(rng, rng.randrange(1_000_000))
        else:
            target = rng.choice(pool)
            schema.setdefault(target, (set(), set()))
            o = f"<{target}>"
        out.append(f"<{s}> <{p}> {o} .\n")
    for v in pool:
        if rng.random() < shape.type_prob:
            c = rng.choice(classes)
            schema.setdefault(v, (set(), set()))[1].add(c)
            out.append(f"<{v}> <{RDF_TYPE}> <{c}> .\n")
    return View("".join(out), len(out), schema)


def union_schema(views: list[View]) -> dict[str, tuple[set[str], set[str]]]:
    """Per-vertex schema of the union graph of several views."""
    merged: dict[str, tuple[set[str], set[str]]] = {}
    for view in views:
        for v, (attrs, classes) in view.schema.items():
            a, c = merged.setdefault(v, (set(), set()))
            a |= attrs
            c |= classes
    return merged
