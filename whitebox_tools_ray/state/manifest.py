"""Resumable-run manifests (north_rule: "resumable from checkpoint with
per-partition lineage + metrics").

A run writes one JSON line per FINISHED partition:

    {"partition_id", "key_range", "rows_in", "rows_out", "wall_s",
     "output_uri", "content_hash", "params_hash", "metrics", "ts"}

``metrics`` is the writer's per-partition operator counts (``{}`` when
it passes none).

The line is appended atomically (write temp + append + fsync) AFTER the
partition's output directory is complete, so a crashed run never records
a half-written partition. On resume, partitions whose (partition_id,
params_hash) already appear are skipped — the reference has no analog
(a WhiteboxTools crash = rerun the tool, SURVEY.md §4), this is engine
value-add required at 10^12-image scale.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field


def params_hash(params: dict) -> str:
    return hashlib.md5(json.dumps(params, sort_keys=True, default=str).encode()).hexdigest()[:16]


@dataclass
class Manifest:
    path: str
    run_params: dict = field(default_factory=dict)

    def __post_init__(self):
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        self._phash = params_hash(self.run_params)

    def completed(self) -> set[str]:
        """partition_ids already finished with the SAME params."""
        done = set()
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    try:
                        rec = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn tail line from a crash — ignore
                    if rec.get("params_hash") == self._phash:
                        done.add(rec["partition_id"])
        return done

    def record(
        self,
        partition_id: str,
        key_range: tuple | list,
        rows_in: int,
        rows_out: int,
        wall_s: float,
        output_uri: str,
        content_hash: str = "",
        metrics: dict | None = None,
    ):
        rec = {
            "partition_id": partition_id,
            "key_range": list(key_range),
            "rows_in": int(rows_in),
            "rows_out": int(rows_out),
            "wall_s": round(float(wall_s), 3),
            "output_uri": output_uri,
            "content_hash": content_hash,
            "params_hash": self._phash,
            "metrics": metrics or {},
            "ts": time.time(),
        }
        line = json.dumps(rec) + "\n"
        # A crash can tear the previous append mid-line; if the file tail is
        # not "\n", lead with one so this record never concatenates onto the
        # torn fragment (which would silently drop BOTH records at resume).
        needs_leading_newline = False
        if os.path.exists(self.path) and os.path.getsize(self.path) > 0:
            with open(self.path, "rb") as rf:
                rf.seek(-1, os.SEEK_END)
                needs_leading_newline = rf.read(1) != b"\n"
        with open(self.path, "a") as f:
            if needs_leading_newline:
                f.write("\n")
            f.write(line)
            f.flush()
            os.fsync(f.fileno())


def dir_content_hash(path: str) -> str:
    """Cheap content hash of an output dir: file names + sizes."""
    h = hashlib.md5()
    for root, _dirs, files in os.walk(path):
        for fn in sorted(files):
            fp = os.path.join(root, fn)
            h.update(fn.encode())
            h.update(str(os.path.getsize(fp)).encode())
    return h.hexdigest()[:16]
