"""Pairwise summary merging.

The merge has the paper's three steps, the third done inside the second.
Step 1 takes the plain union of the two summaries' schemas and payloads,
which is already correct for every member whose situation is trivial (case
1). Step 2 looks each member of the smaller input up in the larger input's
member index, the one member-to-EQC map a merge builds, to find members
under *different* EQCs (case 3), and moves each into the EQC of the combined
schema, creating it if needed. A memo local to the merge maps two schema
sides to their union, so no union is computed twice: this pays when the
sides of conflicting pairs repeat, as with a small label alphabet. The
paper's step 3 deletes every EQC that lost all its members from both the
schemas and the payloads; here step 2 deletes each such EQC as the move that
drains it happens, with the same result, so the drained member sets are not
all alive at once. The paper's payload adaptation for case 2 is a new member
count; a payload is its member set and the count is that set's size, so it
needs no work.

The case statistics and |E1 ∪ E2| come from the steps themselves, not from a
second scan: step 1's union of an EQC both inputs hold gives the size of
their intersection, and step 2 counts the case-3 members and which of them
step 1 counted as case 2. A reference oracle in `tests/helpers.py` counts
the same cases member by member.

Merging S1 into S2 and S2 into S1 produces the same summary; only the case
statistics, which are reported from S1's perspective, differ -- and the
case-3 count is equal in both directions. The whole thing relies on the two
inputs using the same model, so that equal schemas have equal identifiers
(every id is a SHA-256 digest); a repeated identifier with a different schema
means a hash collision or inconsistent inputs and is reported as corruption
rather than silently repaired.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from mvsum.errors import DataError, UsageError
from mvsum.summary import EqcId, Schema, Summary, eqc_id, union_side


class MergeConfigError(UsageError):
    """Inputs cannot be merged as configured (model mismatch)."""


class CorruptSummaryError(DataError):
    """One EqcId carries two different schemas: collision or bad inputs."""


@dataclass(frozen=True)
class CaseStats:
    """How the members of S1 fall into the three merge cases."""

    case1: int
    case2: int
    case3: int
    members_s1: int


@dataclass(frozen=True)
class MergeRecord:
    """Size and timing accounting for one pairwise merge.

    All edge counts refer to the serialized-triple representation:
    `edges_sum` is |E1| + |E2| and `edges_union` is |E1 ∪ E2| (the size of
    the step-1 union), so max(|E1|, |E2|) <= edges_union <= edges_sum always
    holds. `wall_ms` covers steps 1 and 2, which also drop the drained
    EQCs and gather the case counts and the shared lines; the two
    `edge_count()` calls after them are not in it.
    """

    edges_s1: int
    edges_s2: int
    edges_sum: int
    edges_union: int
    wall_ms: float
    stats: CaseStats | None


def check_compatible(what: str, named) -> None:
    """MergeConfigError naming the first (name, summary) whose model differs from the first's."""
    (first, s1), *rest = named
    for name, s in rest:
        if s.model != s1.model:
            raise MergeConfigError(f"{what}: {first} is model={s1.model.value}, {name} is model={s.model.value}")


def merge(s1: Summary, s2: Summary) -> tuple[Summary, MergeRecord]:
    """Merge two summaries; the result summarizes the union of their graphs.

    Returns the merged summary plus a MergeRecord with sizes, wall time, and
    the S1-perspective case statistics. The inputs are not modified.
    """
    check_compatible("cannot merge", [("S1", s1), ("S2", s2)])
    started = time.perf_counter()

    # Step 1: union of schemas and payload member sets, keyed by EqcId. For
    # an EQC in both inputs, the size of the union also gives |p1 ∩ p2|:
    # case 2 and the shared serialized lines need nothing more.
    out = Summary(model=s1.model, eqcs=dict(s1.eqcs))
    for cid, schema in s2.eqcs.items():
        existing = out.eqcs.get(cid)
        if existing is None:
            out.eqcs[cid] = schema
        elif existing != schema:
            raise CorruptSummaryError(f"EqcId {cid} maps to two different schemas")
    case2 = common = 0
    for cid, (attributes, classes) in out.eqcs.items():
        p1 = s1.payloads.get(cid)
        p2 = s2.payloads.get(cid)
        if p1 is None:
            members = set(p2)
        elif p2 is None:
            members = set(p1)
        else:
            members = p1 | p2
            both = len(p1) + len(p2) - len(members)
            case2 += len(p1) - both
            common += len(attributes) + len(classes) + 1 + both
            common += len(p1) == len(p2)
        out.payloads[cid] = members

    # Step 2: detect case 3, move each conflicting member into the EQC of
    # the combined schema, and drop each EQC a move drains. Scanning the
    # smaller input's payloads against the larger input's member index
    # finds the same conflicts at lower cost.
    # `row` holds the target of each pair of the scanned EQC with an EQC of
    # the other input met so far; an EQC with no conflict gets no row.
    # `unions` maps a schema side to a dict from another side to their union,
    # so a side union repeated across pairs is computed once per merge.
    # `union_side` depends on the two tuples alone, so attribute and class
    # sides share it. `ids` digests and checks each combined schema once.
    members_s1 = sum(map(len, s1.payloads.values()))
    scan, other = (s1, s2) if members_s1 <= sum(map(len, s2.payloads.values())) else (s2, s1)
    get = other.member_index.get
    eqcs, payloads, s2_eqcs = out.eqcs, out.payloads, s2.eqcs
    unions: dict[tuple[str, ...], dict[tuple[str, ...], tuple[str, ...]]] = {}
    ids: dict[Schema, EqcId] = {}
    case3 = 0
    for ca, members in scan.payloads.items():
        row = None
        for m in members:
            cb = get(m)
            if cb is None or cb == ca:
                continue
            if row is None:
                row = {}
                attrs_a, classes_a = eqcs[ca]
                attrs_with = unions.setdefault(attrs_a, {})
                classes_with = unions.setdefault(classes_a, {})
            cid = row.get(cb)
            if cid is None:
                attrs_b, classes_b = eqcs[cb]
                attrs = attrs_with.get(attrs_b)
                if attrs is None:
                    attrs = attrs_with[attrs_b] = union_side(attrs_a, attrs_b)
                classes = classes_with.get(classes_b)
                if classes is None:
                    classes = classes_with[classes_b] = union_side(classes_a, classes_b)
                schema = (attrs, classes)
                cid = ids.get(schema)
                if cid is None:
                    cid = ids[schema] = eqc_id(out.model, schema)
                    existing = eqcs.get(cid)
                    if existing is None:
                        eqcs[cid] = schema
                        payloads[cid] = set()
                    elif existing != schema:
                        raise CorruptSummaryError(f"EqcId {cid} maps to two different schemas")
                row[cb] = cid
            # The paper's step 3: an EQC goes as it drains, tested after the
            # add, as `cid` may be `ca` or `cb`. An unmoved member keeps `ca`
            # and `cb`, and a target all it gets, so no cached target is ever
            # dropped; a dropped EQC that comes back is re-created above.
            pa, pb = payloads[ca], payloads[cb]
            pa.discard(m)
            pb.discard(m)
            payloads[cid].add(m)
            if not pa:
                del eqcs[ca], payloads[ca]
            if not pb:
                del eqcs[cb], payloads[cb]
            # A conflict whose S1 EQC is also in S2 was counted in case 2 above.
            case3 += 1
            if (ca if scan is s1 else cb) in s2_eqcs:
                case2 -= 1
    del unions  # its teardown is step 2's work, so it falls inside wall_ms
    wall_ms = (time.perf_counter() - started) * 1e3

    e1 = s1.edge_count()
    e2 = s2.edge_count()
    record = MergeRecord(
        edges_s1=e1,
        edges_s2=e2,
        edges_sum=e1 + e2,
        edges_union=e1 + e2 - common,
        wall_ms=wall_ms,
        stats=CaseStats(members_s1 - case2 - case3, case2, case3, members_s1),
    )
    return out, record
