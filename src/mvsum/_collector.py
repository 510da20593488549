"""The cyclic garbage collector, paused over the bulk stages.

Building a graph, summarizing it, loading a summary, formatting or saving
one and merging two allocate many tuples, strings, sets, lists and
str-keyed dicts, none of which holds a reference cycle, so the collector's
passes over them free nothing. Those stages run under `paused()`.
Reference counting still frees everything they drop. A generator never
holds the pause across a `yield`: the caller's own code between items runs
with the caller's setting.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def paused():
    """Disable cyclic GC for the block.

    On exit the collector is re-enabled only if it was enabled on entry, so a
    caller that disabled it finds it still disabled, also after an exception.
    Also usable as a decorator.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
