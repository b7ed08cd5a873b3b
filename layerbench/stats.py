"""Parser for the text ``ray.data.Dataset.stats()`` prints (Ray 2.49).

Each operator block starts with a header line such as::

    Operator 2 MapBatches(A): 4 tasks executed, 4 blocks produced in 1.23s

followed by ``* Remote wall time: ... total`` style bullet lines. Fused
all-to-all operators print ``executed in`` and indented ``Suboperator``
blocks instead. Times are printed by Ray's ``fmt`` helper with the unit
``us``, ``ms`` or ``s``.
"""

from __future__ import annotations

import re

_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_HEADER = re.compile(r"^\s*(Operator|Suboperator) (\d+) (.+?): (.*)$")
_TOTAL_TIME = re.compile(r"^\s*\* (Remote wall time|Remote cpu time|UDF time): .*?([\d.]+)(us|ms|s) total")
_TOTAL_COUNT = re.compile(r"^\s*\* Output (num rows|size bytes) per block: .*?(\d+) total")
_TIME_FIELD = {"Remote wall time": "remote_wall_s", "Remote cpu time": "remote_cpu_s", "UDF time": "udf_s"}
_COUNT_FIELD = {"num rows": "rows", "size bytes": "bytes"}


def parse_stats(text: str) -> list[dict]:
    """Operators in print order, each a dict with ``name``, ``kind``
    (``Operator``/``Suboperator``), ``tasks``, ``blocks``, ``wall_s`` (the
    operator's first-task-start to last-task-end span), ``remote_wall_s``,
    ``remote_cpu_s``, ``udf_s`` (totals over tasks), ``rows``, ``bytes``
    (output totals) and ``cached``. Fields Ray did not print stay 0."""
    ops: list[dict] = []
    cur: dict | None = None
    for line in text.splitlines():
        m = _HEADER.match(line)
        if m:
            rest = m.group(4)
            cur = {
                "kind": m.group(1),
                "number": int(m.group(2)),
                "name": m.group(3),
                "tasks": _int(r"(\d+) tasks executed", rest),
                "blocks": _int(r"(\d+) blocks produced", rest),
                "wall_s": _float(r"(?:produced|executed) in ([\d.]+)s", rest),
                "remote_wall_s": 0.0,
                "remote_cpu_s": 0.0,
                "udf_s": 0.0,
                "rows": 0,
                "bytes": 0,
                "cached": "[execution cached]" in rest,
            }
            ops.append(cur)
            continue
        if cur is None:
            continue
        m = _TOTAL_TIME.match(line)
        if m:
            cur[_TIME_FIELD[m.group(1)]] = float(m.group(2)) * _UNIT_S[m.group(3)]
            continue
        m = _TOTAL_COUNT.match(line)
        if m:
            cur[_COUNT_FIELD[m.group(1)]] = int(m.group(2))
    return ops


def new_operators(stats_text: str, upstream_text: str | None) -> list[dict]:
    """Operators of ``stats_text`` that the upstream dataset's stats do
    not already list: the work of the last layer alone."""
    ops = parse_stats(stats_text)
    if upstream_text is None:
        return ops
    return ops[len(parse_stats(upstream_text)):]


def _int(pattern: str, text: str) -> int:
    m = re.search(pattern, text)
    return int(m.group(1)) if m else 0


def _float(pattern: str, text: str) -> float:
    m = re.search(pattern, text)
    return float(m.group(1)) if m else 0.0
