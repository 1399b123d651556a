"""Durable, integrity-checked campaign checkpoints.

A checkpoint file is ``MAGIC || sha256(payload) || payload`` where the
payload is a pickled :class:`Checkpoint`.  Writes are atomic (temp file in
the same directory, fsync, then ``os.replace``), so a crash mid-write
leaves either the previous checkpoint or none — never a half-written file.
Reads verify the magic and the digest, so truncation or corruption
surfaces as a :class:`CheckpointError` with a one-line diagnostic instead
of a pickle traceback or, worse, silently wrong simulation state.

Checkpoints are bound to their campaign by a *config fingerprint* — a
SHA-256 over the circuit structure, the test vectors, the fault universe
and the engine configuration.  Resuming against a checkpoint whose
fingerprint does not match the requested run is refused: a resumed run
must be bit-identical to an uninterrupted one, which is only meaningful
when both describe the same campaign.
"""

from __future__ import annotations

import glob
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import List, Optional

#: File magic: format name + version.  Bump on layout changes.
MAGIC = b"RPROCKPT1\n"
_DIGEST_LEN = hashlib.sha256().digest_size


class CheckpointError(ValueError):
    """Raised for unreadable, corrupt, truncated or mismatched checkpoints."""


class CampaignInterrupted(KeyboardInterrupt):
    """A Ctrl-C that was handled: the final checkpoint is already on disk.

    Raised by the resilient runners after they flush state, so callers
    (the CLI) can print the resume command and exit with code 130.
    """

    def __init__(self, checkpoint_path: Optional[str], cycles_done: int = 0) -> None:
        super().__init__()
        self.checkpoint_path = checkpoint_path
        self.cycles_done = cycles_done


@dataclass
class Checkpoint:
    """One durable unit of campaign progress.

    ``kind`` distinguishes single-run checkpoints (``run``: engine snapshot
    + cycle index) from table-campaign checkpoints (``tables``: completed
    cells).  ``payload`` is checkpoint-kind specific; ``fingerprint`` binds
    the file to its campaign configuration.
    """

    kind: str
    fingerprint: str
    payload: dict = field(default_factory=dict)


def config_fingerprint(*parts) -> str:
    """SHA-256 fingerprint of a campaign configuration.

    Callers pass anything with a stable, deterministic ``repr`` (circuit
    structure tuples, vector tuples, sorted fault lists, option objects,
    seeds).  Two configurations fingerprint equal iff their canonical
    representations match.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def circuit_fingerprint(circuit) -> str:
    """Structural fingerprint of a circuit (name + gates + connectivity)."""
    structure = tuple(
        (gate.name, gate.gtype.name, gate.fanin, gate.is_output)
        for gate in circuit.gates
    )
    return config_fingerprint(circuit.name, structure)


def write_checkpoint(path: str, checkpoint: Checkpoint) -> None:
    """Atomically write *checkpoint* to *path* (temp file + rename)."""
    data = pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL)
    blob = MAGIC + hashlib.sha256(data).digest() + data
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def checkpoint_files(path: str) -> List[str]:
    """The checkpoint files of a campaign based at *path* that exist.

    A single-process run checkpoints to *path* itself, a sharded one to
    ``<path>.shardII-of-NN`` (see :func:`repro.parallel.runner.shard_checkpoint_path`).
    """
    shards = sorted(glob.glob(glob.escape(path) + ".shard*"))
    return ([path] if os.path.exists(path) else []) + shards


def latest_checkpoint_mtime(path: str) -> Optional[float]:
    """The newest mtime among *path* and its per-shard siblings, or None.

    A checkpoint write is a liveness signal: the serving layer's reaper
    uses it as an implicit heartbeat for shard *processes*, which cannot
    renew a lease in the parent's memory — a worker whose checkpoints
    keep advancing is alive even if its lease record looks stale.
    """
    newest: Optional[float] = None
    for candidate in checkpoint_files(path):
        try:
            mtime = os.path.getmtime(candidate)
        except OSError:
            continue
        if newest is None or mtime > newest:
            newest = mtime
    return newest


def read_checkpoint(path: str, expect_fingerprint: Optional[str] = None) -> Checkpoint:
    """Read and verify a checkpoint; raises :class:`CheckpointError`.

    When *expect_fingerprint* is given, a fingerprint mismatch is refused —
    the checkpoint belongs to a different campaign configuration.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint file at {path!r}") from None
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None
    if not blob.startswith(MAGIC):
        raise CheckpointError(
            f"{path!r} is not a repro checkpoint (bad or missing magic)"
        )
    body = blob[len(MAGIC):]
    if len(body) < _DIGEST_LEN:
        raise CheckpointError(f"checkpoint {path!r} is truncated (no digest)")
    digest, data = body[:_DIGEST_LEN], body[_DIGEST_LEN:]
    if hashlib.sha256(data).digest() != digest:
        raise CheckpointError(
            f"checkpoint {path!r} is truncated or corrupt (digest mismatch)"
        )
    try:
        checkpoint = pickle.loads(data)
    except Exception as exc:  # pickle raises many types on corrupt input
        raise CheckpointError(f"checkpoint {path!r} failed to load: {exc}") from None
    if not isinstance(checkpoint, Checkpoint):
        raise CheckpointError(f"checkpoint {path!r} holds a foreign object")
    if expect_fingerprint is not None and checkpoint.fingerprint != expect_fingerprint:
        raise CheckpointError(
            f"checkpoint {path!r} was written by a different campaign "
            "(config fingerprint mismatch); refusing to resume"
        )
    return checkpoint
