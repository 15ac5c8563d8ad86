"""Search kernel selection: compiled extension if available, else pure python.

Set PMHGRAPH_KERNEL=pure to force the fallback (used by the benchmark and
the backend-parity tests).
"""

import os

from . import purecore

FOUND = purecore.FOUND
ABSENT = purecore.ABSENT
BUDGET = purecore.BUDGET

# The largest graph a search accepts, in vertices: the compiled searches
# recurse once per path vertex, and _fastcore.c's MAX_VERTICES refuses more.
MAX_VERTICES = 1 << 14

if os.environ.get("PMHGRAPH_KERNEL") == "pure":
    _impl = purecore
else:
    try:
        from . import _fastcore as _impl
    except ImportError:
        _impl = purecore

BACKEND = _impl.BACKEND
ham_cycle = _impl.ham_cycle
longest_cycle = _impl.longest_cycle
pm_scan = _impl.pm_scan
