"""Multi-view structural graph summaries: build, merge, schedule, measure."""

from mvsum.errors import DataError, UsageError
from mvsum.graph import Graph, build_graph
from mvsum.merge import (
    CaseStats,
    CorruptSummaryError,
    MergeConfigError,
    MergeRecord,
    merge,
)
from mvsum.multimerge import MergeSchedule, Strategy, merge_all, schedule_work
from mvsum.ntriples import ParseError, Term, Triple, parse_ntriples
from mvsum.summary import (
    Model,
    Summary,
    canonical_string,
    eqc_id,
    summarize,
)
from mvsum.summary_io import SummaryFormatError, load_summary, read_summary, save_summary


__version__ = "0.1.0"

__all__ = [
    "CaseStats",
    "CorruptSummaryError",
    "DataError",
    "Graph",
    "MergeConfigError",
    "MergeRecord",
    "MergeSchedule",
    "Model",
    "ParseError",
    "Strategy",
    "Summary",
    "SummaryFormatError",
    "Term",
    "Triple",
    "UsageError",
    "build_graph",
    "canonical_string",
    "eqc_id",
    "load_summary",
    "merge",
    "merge_all",
    "parse_ntriples",
    "read_summary",
    "save_summary",
    "schedule_work",
    "summarize",
]
