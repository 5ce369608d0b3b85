"""Persistent epoch history: one run directory, one validated manifest.

A long-lived auction service is only auditable if every epoch it ran can
be re-examined after the fact.  :class:`EpochStore` owns one *run
directory*::

    <run_dir>/
      manifest.json                     # written last, by finalize()
      TRACE_service.jsonl               # optional run-level attachments
      epochs/
        epoch_0000/
          result.json                   # membership + outcome document
          BENCH_epoch_0000.json         # optional per-epoch obs artifact
        epoch_0001/
          ...

``manifest.json`` (schema v1) indexes every epoch with the SHA-256 digest
of each file it produced, so ``repro epochs validate`` can prove the
on-disk history is complete (no index gaps) and untampered (digests
match), and ``repro epochs show`` can summarize a run without parsing
every epoch.  The manifest is written once, at :meth:`EpochStore.finalize`
— a run directory without one is, by definition, an interrupted run.

Per-epoch BENCH artifacts reuse the schema-versioned
:mod:`repro.obs.artifact` format, so ``repro metrics show/diff`` work on
an epoch's metrics file exactly as they do on any other artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.artifact import (
    ARTIFACT_PREFIX,
    build_artifact,
    git_sha,
    validate_artifact,
)
from repro.obs.registry import MetricsRegistry

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "MANIFEST_NAME",
    "RUN_KIND",
    "EpochStore",
    "load_manifest",
    "load_epoch_result",
    "validate_run",
]

#: Current manifest schema version; bump on breaking layout changes.
MANIFEST_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
RUN_KIND = "lppa-epoch-run"

_EPOCH_DIR = "epochs"
_RESULT_FILE = "result.json"


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return f"sha256:{digest.hexdigest()}"


def _write_digested(path: Path, data: bytes) -> str:
    """Write ``data`` to ``path``; the manifest digest of what was written."""
    path.write_bytes(data)
    return f"sha256:{hashlib.sha256(data).hexdigest()}"


def _json_bytes(document: Dict[str, Any]) -> bytes:
    """The on-disk form of every JSON file in a run (and of BENCH files)."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


@dataclass(frozen=True)
class _EpochEntry:
    index: int
    directory: str
    files: Dict[str, str]
    summary: Dict[str, Any]

    def as_document(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "dir": self.directory,
            "files": dict(self.files),
            "summary": dict(self.summary),
        }


class EpochStore:
    """Writes one epoch run's history under a run directory."""

    def __init__(
        self,
        run_dir: Union[str, Path],
        *,
        config: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._root = Path(run_dir)
        self._root.mkdir(parents=True, exist_ok=True)
        (self._root / _EPOCH_DIR).mkdir(exist_ok=True)
        self._config = dict(config or {})
        self._entries: List[_EpochEntry] = []
        self._attachments: Dict[str, str] = {}
        self._finalized = False

    @property
    def root(self) -> Path:
        return self._root

    @property
    def n_epochs(self) -> int:
        return len(self._entries)

    def epoch_dir(self, index: int) -> Path:
        """Directory one epoch's files land in (``epochs/epoch_NNNN``)."""
        return self._root / _EPOCH_DIR / f"epoch_{index:04d}"

    def record_epoch(
        self,
        index: int,
        document: Dict[str, Any],
        *,
        registry: Optional[MetricsRegistry] = None,
        summary: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist one epoch: its result document and optional metrics.

        Epochs must arrive in order (``index == n_epochs``) — the manifest
        guarantees a gap-free history, so the store refuses to create one.
        """
        if self._finalized:
            raise RuntimeError("run already finalized")
        if index != len(self._entries):
            raise ValueError(
                f"epoch {index} out of order (expected {len(self._entries)})"
            )
        directory = self.epoch_dir(index)
        directory.mkdir(parents=True, exist_ok=True)
        files: Dict[str, str] = {}

        files[_RESULT_FILE] = _write_digested(
            directory / _RESULT_FILE, _json_bytes(document)
        )
        if registry is not None:
            name = f"epoch_{index:04d}"
            artifact = build_artifact(
                name, registry, config={"epoch": index, **self._config}
            )
            artifact_name = f"{ARTIFACT_PREFIX}{name}.json"
            files[artifact_name] = _write_digested(
                directory / artifact_name, _json_bytes(artifact)
            )

        self._entries.append(
            _EpochEntry(
                index=index,
                directory=str(directory.relative_to(self._root)),
                files=files,
                summary=dict(summary or {}),
            )
        )
        return directory

    def attach_file(self, name: str, content: Union[str, bytes]) -> Path:
        """Write one run-level file (e.g. a merged trace) into the run dir
        and register its digest in the manifest."""
        if self._finalized:
            raise RuntimeError("run already finalized")
        if "/" in name or name in (MANIFEST_NAME, _EPOCH_DIR):
            raise ValueError(f"bad attachment name {name!r}")
        path = self._root / name
        data = content.encode() if isinstance(content, str) else content
        self._attachments[name] = _write_digested(path, data)
        return path

    def finalize(self, summary: Optional[Dict[str, Any]] = None) -> Path:
        """Write ``manifest.json``; the run is complete and read-only."""
        if self._finalized:
            raise RuntimeError("run already finalized")
        manifest = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "kind": RUN_KIND,
            "created_at": datetime.now(timezone.utc).isoformat(),
            "git_sha": git_sha(),
            "config": dict(self._config),
            "epochs": [entry.as_document() for entry in self._entries],
            "attachments": dict(self._attachments),
            "summary": dict(summary or {}),
        }
        path = self._root / MANIFEST_NAME
        path.write_bytes(_json_bytes(manifest))
        self._finalized = True
        return path


# -- reading and validating a finished run ------------------------------------


def load_manifest(run_dir: Union[str, Path]) -> Dict[str, Any]:
    """Read a run's manifest; raises ``ValueError`` when structurally bad."""
    path = Path(run_dir) / MANIFEST_NAME
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"{run_dir}: no readable manifest ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    errors = _manifest_shape_errors(document)
    if errors:
        raise ValueError(f"{path}: " + "; ".join(errors))
    return document


def load_epoch_result(run_dir: Union[str, Path], index: int) -> Dict[str, Any]:
    """One epoch's ``result.json`` document."""
    manifest = load_manifest(run_dir)
    for entry in manifest["epochs"]:
        if entry["index"] == index:
            path = Path(run_dir) / entry["dir"] / _RESULT_FILE
            return json.loads(path.read_text())
    raise ValueError(f"{run_dir}: no epoch {index} in the manifest")


def _manifest_shape_errors(document: Any) -> List[str]:
    errors: List[str] = []
    if not isinstance(document, dict):
        return ["manifest must be a JSON object"]
    if document.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        errors.append(
            f"schema_version must be {MANIFEST_SCHEMA_VERSION}, "
            f"got {document.get('schema_version')!r}"
        )
    if document.get("kind") != RUN_KIND:
        errors.append(f"kind must be {RUN_KIND!r}, got {document.get('kind')!r}")
    epochs = document.get("epochs")
    if not isinstance(epochs, list):
        return errors + ["'epochs' must be a list"]
    for i, entry in enumerate(epochs):
        if not isinstance(entry, dict):
            errors.append(f"epoch entry {i} must be an object")
            continue
        if entry.get("index") != i:
            errors.append(
                f"epoch entry {i} has index {entry.get('index')!r} "
                "(history must be gap-free and ordered)"
            )
        if not isinstance(entry.get("dir"), str) or not entry.get("dir"):
            errors.append(f"epoch entry {i} needs a non-empty 'dir'")
        files = entry.get("files")
        if not isinstance(files, dict) or _RESULT_FILE not in files:
            errors.append(f"epoch entry {i} must list files incl. {_RESULT_FILE!r}")
    attachments = document.get("attachments")
    if attachments is not None and not isinstance(attachments, dict):
        errors.append("'attachments' must be an object")
    return errors


def validate_run(run_dir: Union[str, Path]) -> List[str]:
    """Every integrity violation in a finished run (empty list == valid).

    Checks the manifest shape, that every referenced file exists with a
    matching SHA-256 digest, that each ``result.json`` parses, and that
    per-epoch BENCH artifacts still satisfy the artifact schema.
    """
    root = Path(run_dir)
    try:
        manifest = load_manifest(root)
    except ValueError as exc:
        return [str(exc)]
    errors: List[str] = []
    for entry in manifest["epochs"]:
        directory = root / entry["dir"]
        for name, digest in entry["files"].items():
            path = directory / name
            if not path.is_file():
                errors.append(f"epoch {entry['index']}: missing file {path}")
                continue
            actual = _sha256_file(path)
            if actual != digest:
                errors.append(
                    f"epoch {entry['index']}: digest mismatch on {name} "
                    f"(manifest {digest}, file {actual})"
                )
                continue
            if name == _RESULT_FILE:
                try:
                    document = json.loads(path.read_text())
                except json.JSONDecodeError as exc:
                    errors.append(f"{path}: not valid JSON ({exc})")
                    continue
                for field in ("epoch", "membership", "result"):
                    if field not in document:
                        errors.append(f"{path}: missing field {field!r}")
                if document.get("epoch") != entry["index"]:
                    errors.append(
                        f"{path}: epoch field {document.get('epoch')!r} "
                        f"disagrees with manifest index {entry['index']}"
                    )
            elif name.startswith("BENCH_"):
                try:
                    artifact = json.loads(path.read_text())
                except json.JSONDecodeError as exc:
                    errors.append(f"{path}: not valid JSON ({exc})")
                    continue
                for problem in validate_artifact(artifact):
                    errors.append(f"{path}: {problem}")
    for name, digest in (manifest.get("attachments") or {}).items():
        path = root / name
        if not path.is_file():
            errors.append(f"missing attachment {path}")
        elif _sha256_file(path) != digest:
            errors.append(f"attachment {name}: digest mismatch")
    return errors
