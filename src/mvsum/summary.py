"""Summary models (AC, CC, ACC), schema identifiers, and graph summarization.

A summary partitions the graph's vertices into equivalence classes (EQCs):
two vertices are equivalent when they share the model's schema features --
the set of outgoing edge labels (AC), the set of classes (CC), or both
(ACC). Each EQC is addressed by the SHA-256 digest of its canonical schema
string, so independently computed summaries assign equal ids to equal
schemas, which is what makes merging summaries possible at all. The hash is
fixed, not a setting: two hashes would give equal schemas unequal ids.

A schema is a plain `(attributes, classes)` pair; the summary, not the
schema, carries the model, and a side the model omits is empty.

`summarize` runs with the cyclic collector paused (see `mvsum._collector`):
its groups, schemas and member sets hold no cycles, so a collection there
would free nothing.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from mvsum._collector import paused
from mvsum.graph import Graph
from mvsum.ntriples import Term

EqcId = str


class Model(str, enum.Enum):
    AC = "AC"
    CC = "CC"
    ACC = "ACC"

    # Plain string comparisons: a member equals its value, and looking up
    # members on the class costs several times as much.
    @property
    def wants_attributes(self) -> bool:
        return self != "CC"

    @property
    def wants_classes(self) -> bool:
        return self != "AC"


# (attributes, classes), each sorted by code point. The empty schema is
# valid: vertices with no outgoing edges and no types belong to it.
Schema = tuple[tuple[str, ...], tuple[str, ...]]


def canonical_string(model: Model, schema: Schema) -> str:
    """Deterministic, injective text form of a schema under a model.

    Model tag, then one angle-bracketed IRI per line for the attributes, a
    literal `|` separator line, then one per line for the classes.
    """
    attributes, classes = schema
    parts = [model.value, "\n"]
    for a in attributes:
        parts.append(f"<{a}>\n")
    parts.append("|\n")
    for c in classes:
        parts.append(f"<{c}>\n")
    return "".join(parts)


def eqc_id(model: Model, schema: Schema) -> EqcId:
    """First 128 bits of the SHA-256 digest of the canonical schema string, as hex."""
    return hashlib.sha256(canonical_string(model, schema).encode("utf-8")).hexdigest()[:32]


def union_side(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """Sorted union of one side (attributes or classes) of two schemas."""
    if a == b:
        return a
    return tuple(sorted(set(a).union(b)))


@dataclass
class Summary:
    """A structural summary: EQC schemas and one payload (member set) per EQC.

    An EQC's payload is its member set; its file form also states the
    member count. Every EqcId is in both `eqcs` and `payloads`, no member
    is in two payloads, each member is an IRI or a blank node with an
    alphanumeric label, each schema side is strictly increasing by code
    point, a side the model omits is empty in every schema, and a finalized
    summary has no empty EQC (`validate` in `tests/helpers.py` checks them
    all). No index is stored: `member_index` builds the member-to-EQC map
    anew on each call. Summaries are treated as immutable once returned;
    the merge engine mutates only summaries it is still building.
    """

    model: Model
    eqcs: dict[EqcId, Schema] = field(default_factory=dict)
    payloads: dict[EqcId, set[Term]] = field(default_factory=dict)

    @property
    def member_index(self) -> dict[Term, EqcId]:
        """Each member's EQC, the inverse of `payloads`: a new dict per call."""
        # `dict.fromkeys` reuses the hashes the sets store; rehashing cost 2x on coarse EQCs.
        index: dict[Term, EqcId] = {}
        for cid, members in self.payloads.items():
            index.update(dict.fromkeys(members, cid))
        return index

    def edge_count(self) -> int:
        """Number of statements in the serialized-triple representation."""
        n = 0
        for attributes, classes in self.eqcs.values():
            n += len(attributes) + len(classes) + 1
        for members in self.payloads.values():
            n += len(members) + 1
        return n


@paused()
def summarize(g: Graph, model: Model) -> Summary:
    """Summarize a whole graph: every vertex lands in exactly one EQC."""
    # Group vertices by their schema first, so its digest is computed once
    # per EQC, not per vertex; each group is a set from the start and becomes
    # its EQC's payload as it is. The graph's label tuples are already
    # sorted, so they are the schema sides as they stand. A side the model
    # omits is read from an empty map, so it is () for every vertex.
    out_labels = g.out_labels if model.wants_attributes else {}
    vertex_labels = g.vertex_labels if model.wants_classes else {}
    groups: dict[Schema, set[Term]] = {}
    for v in g.vertices:
        key = (out_labels.get(v, ()), vertex_labels.get(v, ()))
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = {v}
        else:
            bucket.add(v)
    s = Summary(model=model)
    for schema, members in groups.items():
        cid = eqc_id(model, schema)
        s.eqcs[cid] = schema
        s.payloads[cid] = members
    return s
