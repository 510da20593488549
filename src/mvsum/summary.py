"""Summary models (AC, CC, ACC), schema identifiers, and graph summarization.

A summary partitions the graph's vertices into equivalence classes (EQCs):
two vertices are equivalent when they share the model's schema features --
the set of outgoing edge labels (AC), the set of classes (CC), or both
(ACC). Each EQC is addressed by a digest of its canonical schema string, so
independently computed summaries assign equal ids to equal schemas, which is
what makes merging summaries possible at all.

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
from mvsum.errors import UsageError
from mvsum.graph import Graph
from mvsum.ntriples import BLANK, LITERAL, Term, normalize_bnode_label

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
        raise UsageError(f"unsupported digest {name!r}") from exc
    if len(probe) < 32:
        raise UsageError(f"digest {name!r} is shorter than 128 bits")
    return name


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


def eqc_id(model: Model, schema: Schema, digest: str = DEFAULT_DIGEST) -> EqcId:
    """First 128 bits of the digest of the canonical schema string, as hex."""
    h = hashlib.new(digest, canonical_string(model, schema).encode("utf-8"))
    return h.hexdigest()[:32]


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
    summary has no empty EQC. No index is stored: `member_index` builds the
    member-to-EQC map anew on each call. Summaries are treated as immutable
    once returned; the merge engine mutates only summaries it is still building.
    """

    model: Model
    digest: str = DEFAULT_DIGEST
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

    def validate(self) -> None:
        """Check the summary invariants; raises ValueError on violation."""
        if set(self.eqcs) != set(self.payloads):
            raise ValueError("eqcs and payloads must have identical key sets")
        seen: dict[Term, EqcId] = {}
        for cid, members in self.payloads.items():
            if not members:
                raise ValueError(f"EQC {cid} has no members")
            for m in members:
                # The loader reads IRI and blank members only, and the writer
                # refuses a blank label the loader would normalize.
                if m.kind == LITERAL:
                    raise ValueError(f"EQC {cid} has a literal member {m.nt()}")
                if m.kind == BLANK and normalize_bnode_label(m.value) != m.value:
                    raise ValueError(f"EQC {cid} has a blank member _:{m.value} whose label is not alphanumeric")
                if m in seen:
                    raise ValueError(f"member {m.nt()} appears in {seen[m]} and {cid}")
                seen[m] = cid
        for cid, (attributes, classes) in self.eqcs.items():
            if attributes and not self.model.wants_attributes:
                raise ValueError(f"EQC {cid} has attributes under model {self.model.value}")
            if classes and not self.model.wants_classes:
                raise ValueError(f"EQC {cid} has classes under model {self.model.value}")
            # The loader sorts each side before it digests it, so a side out
            # of order, or with a repeat, would write a file that cannot load.
            for name, side in (("attributes", attributes), ("classes", classes)):
                if any(a >= b for a, b in zip(side, side[1:])):
                    raise ValueError(f"EQC {cid} has {name} that are not strictly increasing")
            if eqc_id(self.model, (attributes, classes), self.digest) != cid:
                raise ValueError(f"EQC id {cid} does not match its schema digest")


@paused()
def summarize(g: Graph, model: Model, digest: str = DEFAULT_DIGEST) -> Summary:
    """Summarize a whole graph: every vertex lands in exactly one EQC."""
    check_digest(digest)
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
    s = Summary(model=model, digest=digest)
    for schema, members in groups.items():
        cid = eqc_id(model, schema, digest)
        s.eqcs[cid] = schema
        s.payloads[cid] = members
    return s
