"""Canonical JSON: sorted keys, two-space indent, floats as their shortest
round-trip ``repr``.

Identical inputs give byte-identical files, which keeps reports diffable.
JSON has no NaN or infinity, so a non-finite float raises ValueError; the
callers write an undefined value as None.
"""

from __future__ import annotations

import json


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_canonical_json(path, obj) -> None:
    text = canonical_json(obj)  # before the open, so a failure truncates nothing
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
