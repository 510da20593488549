"""Pairwise summary merging.

The merge has three steps. Step 1 takes the plain union of the two
summaries' schemas and payloads, which is already correct for every member
whose situation is trivial (case 1). Step 2 finds members present in both
summaries under *different* EQCs (case 3) and moves each into the EQC of the
combined schema, creating it if needed. Step 3 recomputes the member counts
(the only payload that needs adapting, case 2) and drops EQCs that lost all
their members.

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
from mvsum.summary import EqcId, Model, Payload, Summary, eqc_id, merge_schemas


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
    holds. `wall_ms` covers the three merge steps only, not the accounting.
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


def combine_eqcs(s: Summary, c1: EqcId, c2: EqcId, m: Term, model: Model | None = None) -> Summary:
    """Move m out of EQCs c1 and c2 and into the EQC of their combined schema.

    The combined schema is the per-side union of the two schemas, i.e. the
    schema m would have in the union graph. The target EQC is created if
    absent; c1 and c2 are left in place (possibly empty) for step 3.
    """
    try:
        schema1 = s.eqcs[c1]
        schema2 = s.eqcs[c2]
    except KeyError as exc:
        raise KeyError(f"unknown EQC {exc.args[0]}") from None
    if model is not None and model != s.model:
        raise MergeConfigError(f"model {model.value} does not match summary model {s.model.value}")
    s.payloads[c1].members.discard(m)
    s.payloads[c2].members.discard(m)
    combined = merge_schemas(schema1, schema2)
    cid = eqc_id(combined, s.digest)
    existing = s.eqcs.get(cid)
    if existing is None:
        s.eqcs[cid] = combined
        s.payloads[cid] = Payload()
    elif existing != combined:
        raise CorruptSummaryError(f"EqcId {cid} maps to two different schemas")
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


def _serialized_union_count(s1: Summary, s2: Summary) -> int:
    """|E1 ∪ E2| over serialized triples, computed without serializing."""
    small, big = (s1, s2) if len(s1.eqcs) <= len(s2.eqcs) else (s2, s1)
    common = 0
    for cid, schema in small.eqcs.items():
        other = big.eqcs.get(cid)
        if other is None:
            continue
        if other != schema:
            raise CorruptSummaryError(f"EqcId {cid} maps to two different schemas")
        common += len(schema.attributes or ()) + len(schema.classes or ()) + 1
        p_small, p_big = small.payloads[cid], big.payloads[cid]
        ms, mb = p_small.members, p_big.members
        if len(ms) > len(mb):
            ms, mb = mb, ms
        common += sum(1 for m in ms if m in mb)
        if p_small.count == p_big.count:
            common += 1
    return s1.edge_count() + s2.edge_count() - common


def merge(s1: Summary, s2: Summary, model: Model | None = None) -> tuple[Summary, MergeRecord]:
    """Merge two summaries; the result summarizes the union of their graphs.

    Returns the merged summary plus a MergeRecord with sizes, wall time, and
    the S1-perspective case statistics. The inputs are not modified.
    """
    _check_compatible(s1, s2, model)
    started = time.perf_counter()

    # Step 1: union of schemas and payload member sets, keyed by EqcId.
    out = Summary(model=s1.model, digest=s1.digest, eqcs=dict(s1.eqcs))
    for cid, schema in s2.eqcs.items():
        existing = out.eqcs.get(cid)
        if existing is None:
            out.eqcs[cid] = schema
        elif existing != schema:
            raise CorruptSummaryError(f"EqcId {cid} maps to two different schemas")
    for cid in out.eqcs:
        p1 = s1.payloads.get(cid)
        p2 = s2.payloads.get(cid)
        if p1 is None:
            members = set(p2.members)
        elif p2 is None:
            members = set(p1.members)
        else:
            members = p1.members | p2.members
        out.payloads[cid] = Payload(members)
    out.member_index = dict(s1.member_index)
    out.member_index.update(s2.member_index)

    # Step 2: detect case 3 and combine EQCs. Scanning the smaller member
    # index finds the same conflicts at lower cost.
    scan, other = (s1, s2) if len(s1.member_index) <= len(s2.member_index) else (s2, s1)
    get = other.member_index.get
    for m, ca in scan.member_index.items():
        cb = get(m)
        if cb is not None and cb != ca:
            combine_eqcs(out, ca, cb, m)

    # Step 3: finalize counts, drop drained EQCs.
    for cid in list(out.eqcs):
        if has_members(out, cid):
            adapt_payload(out, cid)
        else:
            remove_empty_eqc(out, cid)
    wall_ms = (time.perf_counter() - started) * 1e3

    e1 = s1.edge_count()
    e2 = s2.edge_count()
    record = MergeRecord(
        edges_s1=e1,
        edges_s2=e2,
        edges_sum=e1 + e2,
        edges_union=_serialized_union_count(s1, s2),
        wall_ms=wall_ms,
        stats=classify_cases(s1, s2),
    )
    return out, record
