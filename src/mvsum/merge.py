"""Pairwise summary merging.

`merge(s1, s2)` summarizes the union of the two summaries' graphs in the
paper's three steps: the union of both summaries, already right for every
member the inputs do not put under different EQCs (cases 1 and 2); the
move of each member they do (case 3) to the EQC of its combined schema;
and the rebuilding of the payloads members left or entered. The inputs are not modified. Payloads are
immutable, so the result shares every input payload it does not change,
and its tables are sized to the EQCs it holds. Beyond its inputs and
result, a merge holds the member index of the input with more members and
the move lists.

The case statistics and |E1 ∪ E2| come from the steps, not from a second
scan; an oracle in `tests/helpers.py` counts the cases member by member.
Merging S1 into S2 and S2 into S1 gives the same summary; only the case
statistics, reported from S1's side, differ, and the case-3 count is equal
both ways. Both inputs must use one model, so that equal schemas have equal
ids. An id carrying two different schemas means a hash collision or
inconsistent inputs, and is reported as corruption, not repaired.

`merge` runs with the cyclic collector paused (see `mvsum._collector`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from mvsum._collector import paused
from mvsum.errors import DataError, UsageError
from mvsum.summary import EqcId, Schema, Summary, as_payload, eqc_id, union_side


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
    holds; `edges_out`, the result's, can exceed `edges_union`. `wall_ms`
    covers the three steps, which also gather the case counts and the
    shared lines; the `edge_count()` calls after them are not in it.
    """

    edges_s1: int
    edges_s2: int
    edges_sum: int
    edges_union: int
    edges_out: int
    wall_ms: float
    stats: CaseStats | None


def check_compatible(what: str, named) -> None:
    """MergeConfigError naming the first (name, summary) whose model differs from the first's."""
    (first, s1), *rest = named
    for name, s in rest:
        if s.model != s1.model:
            raise MergeConfigError(f"{what}: {first} is model={s1.model.value}, {name} is model={s.model.value}")


@paused()
def merge(s1: Summary, s2: Summary) -> tuple[Summary, MergeRecord]:
    """Merge two summaries; the result summarizes the union of their graphs.

    Returns the merged summary plus a MergeRecord with sizes, wall time, and
    the S1-perspective case statistics. The inputs are not modified.
    """
    check_compatible("cannot merge", [("S1", s1), ("S2", s2)])
    started = time.perf_counter()

    # Step 1: the union of schemas and payloads, sharing each input payload.
    # For an EQC in both, the union's size also gives |p1 ∩ p2|.
    eqcs, payloads, s1_payloads, s2_eqcs = dict(s1.eqcs), dict(s1.payloads), s1.payloads, s2.eqcs
    case2 = common = 0
    for cid, schema in s2_eqcs.items():
        p2 = s2.payloads[cid]
        existing = eqcs.get(cid)
        if existing is None:
            eqcs[cid] = schema
            payloads[cid] = p2
            continue
        if existing != schema:
            raise CorruptSummaryError(f"EqcId {cid} maps to two different schemas")
        p1 = s1_payloads[cid]
        members = frozenset(p1).union(p2)
        both = len(p1) + len(p2) - len(members)
        case2 += len(p1) - both
        common += len(schema[0]) + len(schema[1]) + 1 + both
        common += len(p1) == len(p2)
        payloads[cid] = p1 if both == len(p2) else p2 if both == len(p1) else members

    # Step 2: scan the smaller input against the larger input's member index
    # and put each case-3 member on the move list of the EQC of the combined
    # schema; an EQC the union lacks waits in `new`. `touched` gets the EQCs
    # members leave. `row` holds the scanned EQC's move lists by other EQC,
    # and `unions` and `ids` are memos, so no side union or id is computed
    # twice: sides repeat across pairs under a small label alphabet.
    members_s1 = sum(map(len, s1_payloads.values()))
    scan, other = (s1, s2) if members_s1 <= sum(map(len, s2.payloads.values())) else (s2, s1)
    get = other.member_index.get
    unions: dict[tuple[str, ...], dict[tuple[str, ...], tuple[str, ...]]] = {}
    ids: dict[Schema, list[str]] = {}
    new: dict[EqcId, Schema] = {}
    moves: dict[EqcId, list[str]] = {}
    touched: list[EqcId] = []
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
            target = row.get(cb)
            if target is None:
                attrs_b, classes_b = eqcs[cb]
                attrs = attrs_with.get(attrs_b)
                if attrs is None:
                    attrs = attrs_with[attrs_b] = union_side(attrs_a, attrs_b)
                classes = classes_with.get(classes_b)
                if classes is None:
                    classes = classes_with[classes_b] = union_side(classes_a, classes_b)
                schema = (attrs, classes)
                target = ids.get(schema)
                if target is None:
                    cid = eqc_id(s1.model, schema)
                    existing = eqcs.get(cid)
                    if existing is None:
                        existing = new.setdefault(cid, schema)
                    if existing != schema:
                        raise CorruptSummaryError(f"EqcId {cid} maps to two different schemas")
                    target = ids[schema] = moves[cid] = []
                row[cb] = target
                touched.append(cb)
            target.append(m)
        if row is not None:
            touched.append(ca)
    del get, unions, ids  # step 2's index and memos go before step 3 builds

    # Step 3: a touched EQC keeps its members that did not move plus its move
    # list, or goes. Step 1 counted each case-3 member in case 2 unless S2
    # lacks its S1 EQC. A dict never shrinks, so each table is copied once,
    # sized to the EQCs left, before the new EQCs are added.
    moved = set().union(*moves.values())
    case3 = counted = len(moved)
    for cid in dict.fromkeys(touched):
        members = payloads[cid]
        kept = members.difference(moved) if len(members) > 1 else ()
        if cid not in s2_eqcs:
            counted -= len(members) - len(kept)
        add = moves.pop(cid, None)
        if add:
            kept = kept.union(add) if kept else add
        if kept:
            payloads[cid] = as_payload(kept)
        else:
            del eqcs[cid], payloads[cid]
    case2 -= counted
    new_payloads = {cid: as_payload(moves.pop(cid)) for cid in new}
    for cid, add in moves.items():
        payloads[cid] = as_payload(frozenset(payloads[cid]).union(add))
    eqcs = dict(eqcs)
    eqcs.update(new)
    payloads = dict(payloads)
    payloads.update(new_payloads)
    out = Summary(model=s1.model, eqcs=eqcs, payloads=payloads)
    wall_ms = (time.perf_counter() - started) * 1e3

    e1 = s1.edge_count()
    e2 = s2.edge_count()
    record = MergeRecord(
        edges_s1=e1,
        edges_s2=e2,
        edges_sum=e1 + e2,
        edges_union=e1 + e2 - common,
        edges_out=out.edge_count(),
        wall_ms=wall_ms,
        stats=CaseStats(members_s1 - case2 - case3, case2, case3, members_s1),
    )
    return out, record
