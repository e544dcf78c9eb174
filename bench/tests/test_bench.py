"""Tests of the benchmark itself, at toy sizes.

Run from the root of the repository:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

TOY = {
    "toy-table-eq": {
        "space": [2, 4], "equivariant": True, "cold": False, "pairs": 36,
        "argv": ["table", "--space", "gr:2,4", "--equivariant",
                 "--v-basis", "opposite", "--jobs", "2", "--out", "{out}"],
    },
    "toy-verify-z-cold": {
        "space": [2, 5], "equivariant": False, "cold": True, "pairs": 100,
        "argv": ["verify", "--space", "gr:2,5"],
    },
}


def qk(argv, cache_dir) -> str:
    """Output of one plain ``qk`` command, outside the benchmark."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QK_CACHE_DIR=str(cache_dir))
    proc = subprocess.run([sys.executable, "-m", "qkcomin", *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return proc.stdout


def reference(spec, cache_dir) -> list:
    argv = [a for a in spec["argv"] if a != "{out}"]
    if "--out" in argv:
        argv.remove("--out")
    text = qk(argv, cache_dir)
    return [hashlib.sha256(line.encode()).hexdigest() for line in text.splitlines()]


def bench(name, expected, trace=False) -> dict:
    return run.run_workload(name, TOY[name], expected, 0.0, trace, seed=1,
                            deadline=time.monotonic() + 170)


@pytest.fixture(scope="module")
def refs(tmp_path_factory):
    cache = tmp_path_factory.mktemp("qkcache")
    return {name: reference(spec, cache) for name, spec in TOY.items()}


@pytest.fixture(scope="module")
def declared():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


@pytest.mark.parametrize("name", sorted(TOY))
def test_untraced_run_is_correct_and_emits_every_end_to_end_metric(name, refs, declared):
    res = bench(name, refs[name])
    assert res["failed"] == 0 and res["correct"]
    assert res["attempted"] == run.MIN_ITERATIONS * TOY[name]["pairs"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == declared[0]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_run_emits_every_per_layer_metric(name, refs, declared):
    res = bench(name, refs[name], trace=True)
    assert res["failed"] == 0 and res["correct"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == declared[1]


def test_traced_pool_run_collects_worker_counters(refs):
    m = bench("toy-table-eq", refs["toy-table-eq"], trace=True)["metrics"]
    assert m["cli.pool_workers"]["value"] == 2
    assert m["quantum.series_calls"]["value"] > 0
    assert 0 < m["cli.pool_useful_ratio"]["value"] <= 1


def test_cold_run_builds_and_writes_every_table(refs):
    m = bench("toy-verify-z-cold", refs["toy-verify-z-cold"], trace=True)["metrics"]
    assert m["gkm.build_calls"]["value"] == m["cache.misses"]["value"] > 0
    assert m["cache.hits"]["value"] == 0
    assert m["cache.bytes_written"]["value"] > 0


@pytest.mark.parametrize("name", sorted(TOY))
def test_wrong_reference_digest_fails(name, refs):
    wrong = list(refs[name])
    wrong[-1] = hashlib.sha256(b"not the output").hexdigest()
    res = bench(name, wrong)
    assert res["failed"] > 0 and not res["correct"]


def test_cold_run_that_found_a_cache_fails():
    spec = TOY["toy-verify-z-cold"]
    result = {"exit_code": 0, "lines": ["x"], "cache_before": ["restrict_0.json"],
              "cache_after": ["restrict_0.json"], "tables_built": 1}
    assert run.count_failed(spec, ["x"], result) == spec["pairs"]
    result.update(cache_before=[], cache_after=[])
    assert run.count_failed(spec, ["x"], result) == spec["pairs"]
    result.update(cache_after=["restrict_0.json"])
    assert run.count_failed(spec, ["x"], result) == 0


def test_table_bytes_do_not_depend_on_jobs(tmp_path):
    argv = ["table", "--space", "gr:2,4", "--equivariant", "--v-basis", "opposite"]
    one = qk(argv + ["--jobs", "1"], tmp_path)
    two = qk(argv + ["--jobs", "2"], tmp_path)
    assert one and one == two


def test_missing_program_exits_nonzero_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.*"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-z-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
