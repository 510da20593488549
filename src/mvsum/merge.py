"""Pairwise summary merging.

The merge has three steps. Step 1 takes the plain union of the two
summaries' schemas and payloads, which is already correct for every member
whose situation is trivial (case 1). Step 2 finds members present in both
summaries under *different* EQCs (case 3) and moves each into the EQC of
the combined schema, creating it if needed. That EQC is resolved once per
pair of EQCs, not once per member: many members share a pair, and few
schemas exist. Step 3 recomputes the member counts (the only payload that
needs adapting, case 2) and drops EQCs that lost all their members.

The case statistics and |E1 ∪ E2| come from the steps themselves, not from a
second scan: step 1's union of an EQC both inputs hold gives the size of
their intersection, and step 2 counts the case-3 members and which of them
step 1 counted as case 2. `classify_cases` counts the same cases member by
member, as a reference.

Merging S1 into S2 and S2 into S1 produces the same summary; only the case
statistics, which are reported from S1's perspective, differ -- and the
case-3 count is equal in both directions. The whole thing relies on the two
inputs using the same model and digest, so that equal schemas have equal
identifiers; a repeated identifier with a different schema means a digest
collision or inconsistent inputs and is reported as corruption rather than
silently repaired.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from mvsum.ntriples import Term
from mvsum.summary import EqcId, EqcSchema, Model, Payload, Summary, eqc_id, union_side


class MergeConfigError(ValueError):
    """Inputs cannot be merged as configured (model or digest mismatch)."""


class CorruptSummaryError(ValueError):
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
    holds. `wall_ms` covers the three merge steps, which also gather the
    case counts and the shared lines; the two `edge_count()` calls after
    them are not in it.
    """

    edges_s1: int
    edges_s2: int
    edges_sum: int
    edges_union: int
    wall_ms: float
    stats: CaseStats | None


def get_members(s: Summary) -> set[Term]:
    """All member vertices of a summary."""
    return set(s.member_index)


def get_eqc(s: Summary, m: Term) -> EqcId:
    """The unique EQC of member m."""
    try:
        return s.member_index[m]
    except KeyError:
        raise KeyError(f"{m.nt()} is not a member of this summary") from None


def has_members(s: Summary, c: EqcId) -> bool:
    """Whether EQC c currently has any members."""
    if c not in s.eqcs:
        raise KeyError(f"unknown EQC {c}")
    return bool(s.payloads[c].members)


def remove_empty_eqc(s: Summary, c: EqcId) -> Summary:
    """Drop a drained EQC from a working summary."""
    if has_members(s, c):
        raise ValueError(f"EQC {c} still has members")
    del s.eqcs[c]
    del s.payloads[c]
    return s


def adapt_payload(s: Summary, c: EqcId) -> Summary:
    """Refresh the count payload of EQC c; the member set needs no change."""
    if not has_members(s, c):
        raise ValueError(f"EQC {c} has no members")
    payload = s.payloads[c]
    payload.count = len(payload.members)
    return s


def _target_eqc(s: Summary, c1: EqcId, c2: EqcId, ids: dict[tuple, EqcId]) -> EqcId:
    """The EQC of c1's and c2's combined schema in s, created if absent.

    `ids` maps each combined (attributes, classes) pair already resolved in
    s to its EqcId, so a caller that resolves many pairs builds, digests and
    checks each combined schema once.
    """
    try:
        a, b = s.eqcs[c1], s.eqcs[c2]
    except KeyError as exc:
        raise KeyError(f"unknown EQC {exc.args[0]}") from None
    key = (union_side(a.attributes, b.attributes), union_side(a.classes, b.classes))
    cid = ids.get(key)
    if cid is None:
        combined = EqcSchema(s.model, *key)
        cid = ids[key] = eqc_id(combined, s.digest)
        existing = s.eqcs.get(cid)
        if existing is None:
            s.eqcs[cid] = combined
            s.payloads[cid] = Payload()
        elif existing != combined:
            raise CorruptSummaryError(f"EqcId {cid} maps to two different schemas")
    return cid


def combine_eqcs(s: Summary, c1: EqcId, c2: EqcId, m: Term, model: Model | None = None) -> Summary:
    """Move m out of EQCs c1 and c2 and into the EQC of their combined schema.

    The combined schema is the per-side union of the two schemas, i.e. the
    schema m would have in the union graph. The target EQC is created if
    absent; c1 and c2 are left in place (possibly empty) for step 3.
    """
    if model is not None and model != s.model:
        raise MergeConfigError(f"model {model.value} does not match summary model {s.model.value}")
    cid = _target_eqc(s, c1, c2, {})
    s.payloads[c1].members.discard(m)
    s.payloads[c2].members.discard(m)
    s.payloads[cid].members.add(m)
    s.member_index[m] = cid
    return s


def classify_cases(s1: Summary, s2: Summary) -> CaseStats:
    """Count, for every member of S1, which merge case it falls into.

    Case 1: not in S2 and its EQC unknown to S2, or in S2 under the same
    EQC. Case 2: not in S2 but its EQC exists in S2. Case 3: in S2 under a
    different EQC.
    """
    get = s2.member_index.get
    s2_eqcs = s2.eqcs
    case1 = case2 = case3 = 0
    for m, cid in s1.member_index.items():
        other = get(m)
        if other is None:
            if cid in s2_eqcs:
                case2 += 1
            else:
                case1 += 1
        elif other == cid:
            case1 += 1
        else:
            case3 += 1
    return CaseStats(case1, case2, case3, len(s1.member_index))


def _check_compatible(s1: Summary, s2: Summary, model: Model | None) -> None:
    if s1.model != s2.model:
        raise MergeConfigError(f"model mismatch: {s1.model.value} vs {s2.model.value}")
    if s1.digest != s2.digest:
        raise MergeConfigError(f"digest mismatch: {s1.digest} vs {s2.digest}")
    if model is not None and model != s1.model:
        raise MergeConfigError(f"requested model {model.value} but summaries use {s1.model.value}")


def merge(s1: Summary, s2: Summary, model: Model | None = None) -> tuple[Summary, MergeRecord]:
    """Merge two summaries; the result summarizes the union of their graphs.

    Returns the merged summary plus a MergeRecord with sizes, wall time, and
    the S1-perspective case statistics. The inputs are not modified.
    """
    _check_compatible(s1, s2, model)
    started = time.perf_counter()

    # Step 1: union of schemas and payload member sets, keyed by EqcId. For
    # an EQC in both inputs, the size of the union also gives |p1 ∩ p2|:
    # case 2 and the shared serialized lines need nothing more.
    out = Summary(model=s1.model, digest=s1.digest, eqcs=dict(s1.eqcs))
    for cid, schema in s2.eqcs.items():
        existing = out.eqcs.get(cid)
        if existing is None:
            out.eqcs[cid] = schema
        elif existing != schema:
            raise CorruptSummaryError(f"EqcId {cid} maps to two different schemas")
    case2 = common = 0
    for cid, schema in out.eqcs.items():
        p1 = s1.payloads.get(cid)
        p2 = s2.payloads.get(cid)
        if p1 is None:
            members = set(p2.members)
        elif p2 is None:
            members = set(p1.members)
        else:
            members = p1.members | p2.members
            both = len(p1.members) + len(p2.members) - len(members)
            case2 += len(p1.members) - both
            common += len(schema.attributes or ()) + len(schema.classes or ()) + 1 + both
            common += p1.count == p2.count
        out.payloads[cid] = Payload(members)
    out.member_index = dict(s1.member_index)
    out.member_index.update(s2.member_index)

    # Step 2: detect case 3 and move each conflicting member into the EQC of
    # the combined schema. Scanning the smaller member index finds the same
    # conflicts at lower cost. `targets` holds the target of each EQC pair
    # met so far, so the schema work is done once per pair, not per member.
    # It is nested, one EQC then the other, so that it allocates no object
    # per pair: tens of thousands of pair keys or member lists alive until
    # the step ends set off a full cyclic collection.
    scan, other = (s1, s2) if len(s1.member_index) <= len(s2.member_index) else (s2, s1)
    get = other.member_index.get
    payloads, index, s2_eqcs = out.payloads, out.member_index, s2.eqcs
    targets: dict[EqcId, dict[EqcId, EqcId]] = {}
    ids: dict[tuple, EqcId] = {}
    case3 = 0
    for m, ca in scan.member_index.items():
        cb = get(m)
        if cb is None or cb == ca:
            continue
        row = targets.get(ca)
        if row is None:
            row = targets[ca] = {}
        cid = row.get(cb)
        if cid is None:
            cid = row[cb] = _target_eqc(out, ca, cb, ids)
        payloads[ca].members.discard(m)
        payloads[cb].members.discard(m)
        payloads[cid].members.add(m)
        index[m] = cid
        # A conflict whose S1 EQC is also in S2 was counted in case 2 above.
        case3 += 1
        if (ca if scan is s1 else cb) in s2_eqcs:
            case2 -= 1

    # Step 3: finalize counts, drop drained EQCs.
    for cid in list(out.eqcs):
        if has_members(out, cid):
            adapt_payload(out, cid)
        else:
            remove_empty_eqc(out, cid)
    wall_ms = (time.perf_counter() - started) * 1e3

    e1 = s1.edge_count()
    e2 = s2.edge_count()
    members_s1 = len(s1.member_index)
    record = MergeRecord(
        edges_s1=e1,
        edges_s2=e2,
        edges_sum=e1 + e2,
        edges_union=e1 + e2 - common,
        wall_ms=wall_ms,
        stats=CaseStats(members_s1 - case2 - case3, case2, case3, members_s1),
    )
    return out, record
