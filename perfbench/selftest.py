"""Self-tests of the benchmark itself.

Run from the repository root (takes about a minute)::

    python3 perfbench/selftest.py

Checks that one seed repeats its bytes and per-layer counts exactly while
another seed changes the inputs, that the host probe imports nothing from
the program and allocates no GC-tracked objects, that a traced run leaves no program function wrapped, that a
forced output mismatch is counted as failed rounds, and that the metric
names match ``BENCHMARK.json``.
"""

from __future__ import annotations

import ast
import io
import json
import re
import subprocess
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer metrics that are counts or ratios of counts: exact per seed.
EXACT_LAYER_METRICS = (
    "crypto.speck.blocks",
    "crypto.hmac.digests",
    "prefix.masked_digests",
    "crypto.mask_cache.hit_ratio",
    "net.frames",
    "auction.conflict.edge_yield",
    "prefix.membership_checks",
    "service.rekeys",
    "service.reseats",
    "round.latency_samples",
)


def _bench(workload: str, seed: int, seconds: float, trace: int):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--setup-samples", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True,
    )
    digest = re.search(r"run digest ([0-9a-f]{64})", out.stdout).group(1)
    return json.loads(out.stdout.strip().splitlines()[-1]), digest


def _values(document) -> dict:
    return {name: m["value"] for name, m in document["metrics"].items()}


def test_seed_repeats_exactly() -> None:
    for workload in ("round2_tcp", "churn_soak"):
        first, digest = _bench(workload, 3, 0.5, 0)
        again, digest_again = _bench(workload, 3, 0.5, 0)
        other, digest_other = _bench(workload, 4, 0.5, 0)
        assert first["correct"] and again["correct"] and other["correct"]
        assert digest == digest_again, workload
        assert digest != digest_other, f"{workload}: another seed must change the inputs"
        assert _values(first)["wire_kb_per_round"] == _values(again)["wire_kb_per_round"]
        traced, _ = _bench(workload, 3, 0.5, 1)
        traced_again, _ = _bench(workload, 3, 0.5, 1)
        a, b = _values(traced), _values(traced_again)
        for name in EXACT_LAYER_METRICS:
            assert a[name] == b[name], f"{workload}: {name} {a[name]} != {b[name]}"


def test_probe_imports_nothing_from_program() -> None:
    tree = ast.parse((HERE / "probe.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= {"__future__", "hashlib", "time"}, imported
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import probe; probe.probe(1); "
         "print([m for m in sys.modules if m.split('.')[0] == 'repro'])", str(HERE)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    assert out.stdout.strip() == "[]", out.stdout


def test_probe_allocates_no_tracked_objects() -> None:
    tree = ast.parse((HERE / "probe.py").read_text())
    (body,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "probe"]
    containers = (
        ast.Tuple, ast.List, ast.Dict, ast.Set,
        ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp, ast.Lambda,
    )
    found = [type(n).__name__ for n in ast.walk(body) if isinstance(n, containers)]
    assert not found, f"probe() builds GC-tracked containers: {found}"


def _wrapped_bindings() -> list:
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if getattr(value, "__perfbench_wrapped__", None) is not None:
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                for attr, member in list(vars(value).items()):
                    if getattr(member, "__perfbench_wrapped__", None) is not None:
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


def test_traced_run_restores_program(run: types.ModuleType) -> None:
    import tracer
    import workloads

    originals = {path: tracer.resolve(path) for _, path, _ in workloads.TARGETS}
    for workload in ("round2_tcp", "churn_soak"):
        with redirect_stdout(io.StringIO()):
            document = run.run(workload, 5, 0.5, True, setup_samples=0, recorded=None)
        assert document["correct"], document
        assert not _wrapped_bindings(), _wrapped_bindings()
        for path, fn in originals.items():
            assert tracer.resolve(path) is fn, path


def test_forced_mismatch_fails_rounds(run: types.ModuleType) -> None:
    with redirect_stdout(io.StringIO()):
        document = run.run("round2_tcp", 6, 0.5, False, setup_samples=0, recorded="0" * 64)
    assert not document["correct"]
    assert document["failed"] == document["attempted"] > 0
    assert document["metrics"]["success_ratio"]["value"] == 0.0


def test_metric_names_match_benchmark_json(run: types.ModuleType) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"] + spec["per_layer"]:
        table = run.END_TO_END if m in spec["end_to_end"] else run.PER_LAYER
        assert table[m["name"]] == m["unit"], m


def main() -> int:
    sys.path.insert(0, str(HERE))
    import run

    run._import_program()
    tests = [
        (test_metric_names_match_benchmark_json, (run,)),
        (test_probe_imports_nothing_from_program, ()),
        (test_probe_allocates_no_tracked_objects, ()),
        (test_forced_mismatch_fails_rounds, (run,)),
        (test_traced_run_restores_program, (run,)),
        (test_seed_repeats_exactly, ()),
    ]
    failed = 0
    for test, args in tests:
        try:
            test(*args)
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {test.__name__}: {exc!r}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
