"""CSV/JSON writers shared by the command-line entry points.

Floats are rendered with repr-faithful precision (17 significant digits) so
artifacts round-trip exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike


CSV_BLOCK = 256   # rows formatted per write; bounds the text held in memory


def write_csv(path: Path, header: Sequence[str], rows: ArrayLike) -> None:
    """Write a float table, one row per line: "%.17g" values and CRLF ends, as csv writes."""
    table = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for block in np.split(table, range(CSV_BLOCK, len(table), CSV_BLOCK)):
            fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return _jsonable(obj.tolist())
    if isinstance(obj, float):
        return "nan" if math.isnan(obj) else obj
    return obj


def write_json(path: Path, payload: dict) -> None:
    path = Path(path)
    with path.open("w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")
