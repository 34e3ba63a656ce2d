"""Files and seeded streams for the experiment harness; record forms are ``model``'s.

RNG policy: every random draw in the harness comes from numpy's PCG64,
seeded through a SeedSequence derived from the command's master seed and a
purpose-tagged spawn key, so each consumer (instance generation, CMA
sampling, hold-out draws, ...) owns an independent, reproducible stream
from ``derive_generator``.
Normal deviates use numpy's Generator.standard_normal (ziggurat transform).

File policy: results are JSON records {"payload": ..., "meta": ...}. The
payload is fully deterministic given the command's seed; meta carries wall
-clock timestamps plus a SHA-256 digest of the canonical payload encoding,
so byte-level reproducibility can be checked while timestamps stay out of
the hashed content. Each JSON record gets a flat CSV twin for plotting
(same stem, .csv suffix); column meanings live in FORMATS.md. Every file
is written to a temporary file in the same directory and then moved over
its target, so a write that fails partway (a NaN refused by the JSON
encoder, say) leaves the previous file intact.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .model import ChainInstance

__all__ = [
    "PURPOSE_APPEND",
    "PURPOSE_CMA",
    "PURPOSE_HOLDOUT",
    "PURPOSE_INSTANCE",
    "PURPOSE_ORDERING",
    "PURPOSE_PERMS",
    "PURPOSE_SAMPLING",
    "canonical_json",
    "derive_generator",
    "generate_instance",
    "load_instance",
    "payload_digest",
    "read_record",
    "save_instance",
    "write_csv",
    "write_record",
]

# Spawn-key purpose tags (documented in FORMATS.md).
PURPOSE_INSTANCE = 1
PURPOSE_CMA = 2
PURPOSE_SAMPLING = 3
PURPOSE_ORDERING = 4
PURPOSE_PERMS = 5
PURPOSE_HOLDOUT = 6
PURPOSE_APPEND = 7


def derive_generator(master_seed: int, *key: int) -> np.random.Generator:
    """The PCG64 stream of the master seed's child SeedSequence ``key``."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(seq))


def generate_instance(n: int, t: float | None, master_seed: int) -> ChainInstance:
    """The chain instance of ``generate-instance``: disorder drawn from the
    master seed's instance stream. It lives here, beside that stream, so the
    command loads only this module and ``model``."""
    rng = derive_generator(master_seed, PURPOSE_INSTANCE)
    return ChainInstance.random(n, rng, t=t, seed=master_seed)


def canonical_json(obj) -> str:
    """Deterministic encoding: sorted keys, no whitespace, finite floats only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@contextmanager
def _replacing(path, newline: str | None = None):
    """Yield a text file that replaces ``path`` once the block completes;
    if the block raises, ``path`` is untouched and the temporary file is
    removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_record(path, payload: dict) -> dict:
    """Write {"payload", "meta"} JSON; returns the full record."""
    record = {
        "payload": payload,
        "meta": {
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "payload_sha256": payload_digest(payload),
        },
    }
    with _replacing(path) as fh:
        json.dump(record, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return record


def read_record(path, command: str | None = None) -> dict:
    """Load a record and return its payload, which must match the digest in its
    ``meta`` and, given ``command``, come from that command."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict) or not isinstance(record.get("payload"), dict):
        raise ValueError(f"{path} is not a record: it has no payload")
    payload = record["payload"]
    meta = record.get("meta")
    if not isinstance(meta, dict) or meta.get("payload_sha256") != payload_digest(payload):
        raise ValueError(f"record {path} is corrupt: its meta holds no matching payload digest")
    if command is not None and payload.get("command") != command:
        raise ValueError(
            f"record {path} comes from {payload.get('command')}, not from {command}")
    return payload


def write_csv(path, header: list[str], rows) -> None:
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save_instance(path, instance: ChainInstance) -> None:
    with _replacing(path) as fh:
        json.dump(instance.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> ChainInstance:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not (isinstance(data, dict) and {"n", "v", "t"} <= data.keys()):
        raise ValueError(f"{path} is not an instance file: it is not an object with n, v and t")
    return ChainInstance.from_dict(data)
