"""Multi-view structural graph summaries: build, merge, schedule, measure."""

from mvsum.graph import Graph, MultiViewSet, build_graph, graph_triples, union
from mvsum.merge import (
    CaseStats,
    CorruptSummaryError,
    MergeConfigError,
    MergeRecord,
    classify_cases,
    merge,
)
from mvsum.multimerge import MergeSchedule, Strategy, merge_all, schedule_work
from mvsum.ntriples import ParseError, Term, Triple, parse_ntriples, serialize_ntriples
from mvsum.summary import (
    DEFAULT_DIGEST,
    EqcSchema,
    Model,
    Payload,
    Summary,
    canonical_string,
    eqc_id,
    schema_of,
    summarize,
    summarize_vertex,
)
from mvsum.summary_io import SummaryFormatError, load_summary, read_summary, save_summary


__version__ = "0.1.0"

__all__ = [
    "CaseStats",
    "CorruptSummaryError",
    "DEFAULT_DIGEST",
    "EqcSchema",
    "Graph",
    "MergeConfigError",
    "MergeRecord",
    "MergeSchedule",
    "Model",
    "MultiViewSet",
    "ParseError",
    "Payload",
    "Strategy",
    "Summary",
    "SummaryFormatError",
    "Term",
    "Triple",
    "build_graph",
    "canonical_string",
    "classify_cases",
    "eqc_id",
    "graph_triples",
    "load_summary",
    "merge",
    "merge_all",
    "parse_ntriples",
    "read_summary",
    "save_summary",
    "schedule_work",
    "schema_of",
    "serialize_ntriples",
    "summarize",
    "summarize_vertex",
    "union",
]
