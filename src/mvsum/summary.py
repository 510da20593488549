"""Summary models (AC, CC, ACC), schema identifiers, and graph summarization.

A summary partitions the graph's vertices into equivalence classes (EQCs):
two vertices are equivalent when they share the model's schema features --
the set of outgoing edge labels (AC), the set of classes (CC), or both
(ACC). Each EQC is addressed by a digest of its canonical schema string, so
independently computed summaries assign equal ids to equal schemas, which is
what makes merging summaries possible at all.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

from mvsum.graph import Graph
from mvsum.ntriples import Term

EqcId = str

DEFAULT_DIGEST = "sha256"


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


def check_digest(name: str) -> str:
    """Validate a hashlib digest name; must produce at least 128 bits."""
    try:
        probe = hashlib.new(name, b"").hexdigest()
    except (ValueError, TypeError) as exc:
        raise ValueError(f"unsupported digest {name!r}") from exc
    if len(probe) < 32:
        raise ValueError(f"digest {name!r} is shorter than 128 bits")
    return name


@dataclass(frozen=True, slots=True)
class EqcSchema:
    """The schema of one equivalence class.

    `attributes` is present (possibly empty) for AC/ACC and None for CC;
    `classes` is present for CC/ACC and None for AC. Both are tuples sorted
    by Unicode code point. The empty schema is a valid schema: vertices with
    no outgoing edges and no types belong to it.
    """

    model: Model
    attributes: tuple[str, ...] | None = None
    classes: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.model.wants_attributes != (self.attributes is not None):
            raise ValueError(f"attributes present iff model is AC/ACC (got {self.model.value})")
        if self.model.wants_classes != (self.classes is not None):
            raise ValueError(f"classes present iff model is CC/ACC (got {self.model.value})")


def canonical_string(schema: EqcSchema) -> str:
    """Deterministic, injective text form of a schema.

    Model tag, then one angle-bracketed IRI per line for the attributes, a
    literal `|` separator line, then one per line for the classes; a side the
    model omits collapses to empty.
    """
    parts = [schema.model.value, "\n"]
    for a in schema.attributes or ():
        parts.append(f"<{a}>\n")
    parts.append("|\n")
    for c in schema.classes or ():
        parts.append(f"<{c}>\n")
    return "".join(parts)


def eqc_id(schema: EqcSchema, digest: str = DEFAULT_DIGEST) -> EqcId:
    """First 128 bits of the digest of the canonical schema string, as hex."""
    h = hashlib.new(digest, canonical_string(schema).encode("utf-8"))
    return h.hexdigest()[:32]


def union_side(a: tuple[str, ...] | None, b: tuple[str, ...] | None) -> tuple[str, ...] | None:
    """Sorted union of one side (attributes or classes) of two schemas."""
    if a is None or a == b:
        return a
    return tuple(sorted(set(a).union(b)))


def merge_schemas(a: EqcSchema, b: EqcSchema) -> EqcSchema:
    """Per-side union of two schemas of the same model."""
    if a.model != b.model:
        raise ValueError(f"cannot merge {a.model.value} schema with {b.model.value} schema")
    return EqcSchema(a.model, union_side(a.attributes, b.attributes), union_side(a.classes, b.classes))


@dataclass
class Payload:
    """Member set of one EQC plus the member count."""

    members: set[Term] = field(default_factory=set)
    count: int = 0


@dataclass
class Summary:
    """A structural summary: schemas, payloads, and the member-to-EQC index.

    `member_index` is the exact inverse of payload membership, every EqcId
    appears in both `eqcs` and `payloads`, and a finalized summary has no
    empty EQC. Summaries are treated as immutable once returned; the merge
    engine mutates only summaries it is still constructing.
    """

    model: Model
    digest: str = DEFAULT_DIGEST
    eqcs: dict[EqcId, EqcSchema] = field(default_factory=dict)
    payloads: dict[EqcId, Payload] = field(default_factory=dict)
    member_index: dict[Term, EqcId] = field(default_factory=dict)

    def edge_count(self) -> int:
        """Number of statements in the serialized-triple representation."""
        n = 0
        for schema in self.eqcs.values():
            n += len(schema.attributes or ()) + len(schema.classes or ()) + 1
        for payload in self.payloads.values():
            n += len(payload.members) + 1
        return n

    def validate(self) -> None:
        """Check the summary invariants; raises ValueError on violation."""
        if set(self.eqcs) != set(self.payloads):
            raise ValueError("eqcs and payloads must have identical key sets")
        seen: dict[Term, EqcId] = {}
        for cid, payload in self.payloads.items():
            if not payload.members:
                raise ValueError(f"EQC {cid} has no members")
            if payload.count != len(payload.members):
                raise ValueError(f"EQC {cid}: count {payload.count} != |members| {len(payload.members)}")
            for m in payload.members:
                if m in seen:
                    raise ValueError(f"member {m.nt()} appears in {seen[m]} and {cid}")
                seen[m] = cid
        if seen != self.member_index:
            raise ValueError("member_index is not the inverse of payload membership")
        for cid, schema in self.eqcs.items():
            if schema.model != self.model:
                raise ValueError(f"EQC {cid} schema model {schema.model.value} != summary model {self.model.value}")
            if eqc_id(schema, self.digest) != cid:
                raise ValueError(f"EQC id {cid} does not match its schema digest")


def schema_of(v: Term, g: Graph, model: Model) -> EqcSchema:
    """The schema of one vertex under a model."""
    if v not in g.vertices:
        raise KeyError(f"unknown vertex {v.nt()}")
    attrs = tuple(sorted(g.out_labels.get(v, ()))) if model.wants_attributes else None
    classes = tuple(sorted(g.vertex_labels.get(v, ()))) if model.wants_classes else None
    return EqcSchema(model, attrs, classes)


def summarize_vertex(v: Term, g: Graph, model: Model, digest: str = DEFAULT_DIGEST) -> tuple[EqcId, EqcSchema, Payload]:
    """The single-vertex summary: (id, schema, payload fragment {v})."""
    schema = schema_of(v, g, model)
    return eqc_id(schema, digest), schema, Payload({v}, 1)


def summarize(g: Graph, model: Model, digest: str = DEFAULT_DIGEST) -> Summary:
    """Summarize a whole graph: every vertex lands in exactly one EQC."""
    check_digest(digest)
    # Group vertices by their raw (attributes, classes) key first, so the
    # schema object and its digest are built once per EQC, not per vertex.
    want_attrs, want_classes = model.wants_attributes, model.wants_classes
    out_labels, vertex_labels = g.out_labels, g.vertex_labels
    groups: dict[tuple, list[Term]] = {}
    for v in g.vertices:
        if want_attrs:
            labels = out_labels.get(v)
            attrs = tuple(sorted(labels)) if labels else ()
        else:
            attrs = None
        if want_classes:
            labels = vertex_labels.get(v)
            classes = tuple(sorted(labels)) if labels else ()
        else:
            classes = None
        key = (attrs, classes)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [v]
        else:
            bucket.append(v)
    s = Summary(model=model, digest=digest)
    for (attrs, classes), members in groups.items():
        schema = EqcSchema(model, attrs, classes)
        cid = eqc_id(schema, digest)
        s.eqcs[cid] = schema
        s.payloads[cid] = Payload(set(members), len(members))
        for m in members:
            s.member_index[m] = cid
    return s
