"""The names `mvsum` exports: a change to the public API shows in this list."""

import mvsum

PUBLIC = [
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


def test_all_is_the_public_api():
    assert sorted(mvsum.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(mvsum, name) is not None, name
