"""Persistence and seeding for the experiment harness.

RNG policy: every random draw in the harness comes from numpy's PCG64,
seeded through a SeedSequence derived from the command's master seed and a
purpose-tagged spawn key, so each consumer (instance generation, CMA
sampling, hold-out draws, ...) owns an independent, reproducible stream.
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
    "derive_seed_sequence",
    "instance_from_dict",
    "instance_to_dict",
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


def derive_seed_sequence(master_seed: int, *key: int) -> np.random.SeedSequence:
    """A child SeedSequence for one purpose-tagged consumer."""
    return np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))


def derive_generator(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(derive_seed_sequence(master_seed, *key)))


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


def read_record(path) -> dict:
    """Load a record and return its payload; verifies the stored digest."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    payload = record["payload"]
    stored = record.get("meta", {}).get("payload_sha256")
    if stored is not None and stored != payload_digest(payload):
        raise ValueError(f"record {path} is corrupt: payload digest mismatch")
    return payload


def write_csv(path, header: list[str], rows) -> None:
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def instance_to_dict(instance: ChainInstance) -> dict:
    return {
        "n": instance.n,
        "v": list(instance.v),
        "t": instance.t,
        "seed": instance.seed,
    }


def instance_from_dict(d: dict) -> ChainInstance:
    return ChainInstance(n=int(d["n"]), v=tuple(d["v"]), t=float(d["t"]), seed=d.get("seed"))


def save_instance(path, instance: ChainInstance) -> None:
    with _replacing(path) as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> ChainInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
