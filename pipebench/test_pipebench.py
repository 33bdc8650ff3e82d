"""Smoke test of the benchmark itself, at 4 ranks (about two minutes)::

    python3 -m pytest -q pipebench/test_pipebench.py

Checks that every metric ``BENCHMARK.json`` names is emitted with its
unit, that the traced run accounts for its whole cold pass, and that
the reference comparison catches an altered result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layers import LAYERS  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = ("run.py", "workloads.py", "layers.py", "reference.json")


def run_bench(workload: str, trace: int, root: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "pipebench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "small"],
        capture_output=True, text=True, timeout=600, cwd=root,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def bench_copy(tmp_path: Path, with_sources: bool) -> Path:
    """A checkout holding the benchmark files, and optionally the sources."""
    (tmp_path / "pipebench").mkdir()
    for name in BENCH_FILES:
        shutil.copy(HERE / name, tmp_path / "pipebench" / name)
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, doc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(doc["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    if trace:
        value = {k: v["value"] for k, v in doc["metrics"].items()}
        selfs = [value[f"{layer}.self_s"] for layer in LAYERS]
        assert min(selfs) >= 0.0 and value["unattributed_s"] >= 0.0
        assert sum(selfs) + value["unattributed_s"] == pytest.approx(
            value["traced_cold_s"])


def test_reference_comparison_catches_an_altered_digest():
    ref = workloads.load_reference("small", "triples-16")
    observed = dict(ref)
    assert workloads.mismatches(observed, ref, 0, lambda op: False) == []
    op = sorted(observed)[0]
    observed[op] = "0" * 24
    assert workloads.mismatches(observed, ref, 0, lambda op: False) == [op]
    del observed[op]
    assert workloads.mismatches(observed, ref, 0, lambda op: False) == [op]


def test_seed_dependent_results_must_repeat_within_a_run():
    def dep(op):
        return workloads.Explain.seed_dependent(None, op)

    ref = {"replay/real": "a", "perturbed/real": "b"}
    first = {"replay/real": "a", "perturbed/real": "c"}
    assert workloads.mismatches(first, ref, 5, dep) == []
    again = {"perturbed/real": "d"}
    assert workloads.mismatches(again, ref, 5, dep, first) == ["perturbed/real"]
    assert workloads.mismatches(first, ref, 0, dep) == ["perturbed/real"]


def test_a_run_against_an_altered_reference_fails(tmp_path):
    root = bench_copy(tmp_path, with_sources=True)
    path = root / "pipebench" / "reference.json"
    doc = json.loads(path.read_text())
    entries = doc["small"]["fig6-cg-64"]
    op = sorted(entries)[0]
    entries[op] = repr(float(entries[op]) * 2)
    path.write_text(json.dumps(doc))
    proc, result = run_bench("fig6-cg-64", 0, root)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert f"MISMATCH fig6-cg-64: {op}" in proc.stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    root = bench_copy(tmp_path, with_sources=False)
    proc, result = run_bench("triples-16", 0, root)
    assert proc.returncode != 0 and result is None
