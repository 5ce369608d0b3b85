"""EpochStore: the digest-manifested run directory and its validator."""

import hashlib
import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.service import store as store_module
from repro.service.store import (
    MANIFEST_NAME,
    EpochStore,
    load_epoch_result,
    load_manifest,
    validate_run,
)


def _document(epoch: int) -> dict:
    return {
        "epoch": epoch,
        "membership": {"version": 0, "members": [0, 1]},
        "result": {"wins": [], "revenue": 0},
    }


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.count("service.epochs")
    registry.record_seconds("net.round", 0.01)
    return registry


def _write_run(tmp_path, epochs=3):
    store = EpochStore(tmp_path / "run", config={"seed": 1})
    for epoch in range(epochs):
        store.record_epoch(
            epoch,
            _document(epoch),
            registry=_registry(),
            summary={"members": 2},
        )
    store.attach_file("TRACE_service.jsonl", '{"event": "x"}\n')
    store.finalize({"epochs": epochs})
    return store.root


def test_roundtrip_and_validation(tmp_path):
    root = _write_run(tmp_path)
    manifest = load_manifest(root)
    assert manifest["kind"] == "lppa-epoch-run"
    assert [e["index"] for e in manifest["epochs"]] == [0, 1, 2]
    assert manifest["config"] == {"seed": 1}
    assert manifest["summary"] == {"epochs": 3}
    assert "TRACE_service.jsonl" in manifest["attachments"]
    assert load_epoch_result(root, 1)["epoch"] == 1
    assert validate_run(root) == []


def test_digests_come_from_the_written_bytes_not_a_read_back(
    tmp_path, monkeypatch
):
    """Writing a run reads no file back, and each manifest digest is the
    SHA-256 of the bytes on disk; the BENCH file is in the artifact's own
    pretty-printed form."""

    def no_read_back(path):
        raise AssertionError(f"read back {path}")

    monkeypatch.setattr(store_module, "_sha256_file", no_read_back)
    root = _write_run(tmp_path)
    monkeypatch.undo()
    manifest = load_manifest(root)
    files = {
        root / entry["dir"] / name: digest
        for entry in manifest["epochs"]
        for name, digest in entry["files"].items()
    }
    files.update(
        (root / name, digest) for name, digest in manifest["attachments"].items()
    )
    assert len(files) == 3 * 2 + 1
    for path, digest in files.items():
        assert digest == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
    bench = root / "epochs" / "epoch_0000" / "BENCH_epoch_0000.json"
    document = json.loads(bench.read_text())
    assert bench.read_text() == json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert validate_run(root) == []


def test_epochs_must_arrive_in_order(tmp_path):
    store = EpochStore(tmp_path / "run")
    store.record_epoch(0, _document(0))
    with pytest.raises(ValueError, match="out of order"):
        store.record_epoch(2, _document(2))


def test_finalize_is_terminal(tmp_path):
    store = EpochStore(tmp_path / "run")
    store.record_epoch(0, _document(0))
    store.finalize()
    with pytest.raises(RuntimeError):
        store.record_epoch(1, _document(1))
    with pytest.raises(RuntimeError):
        store.finalize()
    with pytest.raises(RuntimeError):
        store.attach_file("x.txt", "x")


def test_attachment_names_cannot_escape_the_run_dir(tmp_path):
    store = EpochStore(tmp_path / "run")
    with pytest.raises(ValueError):
        store.attach_file("../escape.txt", "x")
    with pytest.raises(ValueError):
        store.attach_file(MANIFEST_NAME, "x")


def test_missing_manifest_is_an_interrupted_run(tmp_path):
    store = EpochStore(tmp_path / "run")
    store.record_epoch(0, _document(0))
    # No finalize(): by definition an interrupted run.
    errors = validate_run(store.root)
    assert errors and "manifest" in errors[0]


def test_validate_detects_tampered_result(tmp_path):
    root = _write_run(tmp_path)
    victim = root / "epochs" / "epoch_0001" / "result.json"
    document = json.loads(victim.read_text())
    document["result"]["revenue"] = 10_000
    victim.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    errors = validate_run(root)
    assert any("digest mismatch" in e for e in errors)


def test_validate_detects_missing_file(tmp_path):
    root = _write_run(tmp_path)
    (root / "epochs" / "epoch_0002" / "result.json").unlink()
    errors = validate_run(root)
    assert any("missing file" in e for e in errors)


def test_validate_detects_index_gap(tmp_path):
    root = _write_run(tmp_path)
    path = root / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    del manifest["epochs"][1]
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    errors = validate_run(root)
    assert any("gap-free" in e for e in errors)


def test_validate_detects_tampered_attachment(tmp_path):
    root = _write_run(tmp_path)
    (root / "TRACE_service.jsonl").write_text("{}\n")
    errors = validate_run(root)
    assert any("attachment" in e for e in errors)


def test_validate_checks_bench_artifact_schema(tmp_path):
    root = _write_run(tmp_path)
    bench = next((root / "epochs" / "epoch_0000").glob("BENCH_*.json"))
    document = json.loads(bench.read_text())
    # Keep the digest honest but break the schema: rewrite the file AND
    # its manifest digest, so only the artifact validator can object.
    del document["schema_version"]
    bench.write_text(json.dumps(document, indent=2, sort_keys=True))
    manifest_path = root / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    from repro.service.store import _sha256_file

    manifest["epochs"][0]["files"][bench.name] = _sha256_file(bench)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    errors = validate_run(root)
    assert errors  # schema violation reported
    assert all("digest" not in e for e in errors)


def test_result_epoch_field_must_match_manifest_index(tmp_path):
    store = EpochStore(tmp_path / "run")
    store.record_epoch(0, _document(7))  # wrong epoch field
    store.finalize()
    errors = validate_run(store.root)
    assert any("disagrees with manifest index" in e for e in errors)
