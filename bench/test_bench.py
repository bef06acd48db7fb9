"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

run.use_source_tree()

import rings  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from finring import cli  # noqa: E402

FIXTURES = run.FIXTURES


def _build(tmp_path, name, seed):
    d = tempfile.mkdtemp(dir=tmp_path)
    return workloads.build(name, seed, d, str(FIXTURES))


def test_same_seed_same_rings_other_seed_other_basis(tmp_path):
    a = _build(tmp_path, "iso_pairs", 1).hashes()
    b = _build(tmp_path, "iso_pairs", 1).hashes()
    c = _build(tmp_path, "iso_pairs", 2).hashes()
    assert a == b
    copies = [label for label in a if label.endswith("'")]
    assert len(copies) == 5
    assert all(a[label] != c[label] for label in copies)
    assert all(a[label] == c[label] for label in a if label not in copies)
    assert rings.random_gl(4, 4, random.Random(1)) != rings.random_gl(4, 4, random.Random(2))


def test_basis_change_is_invertible_and_keeps_the_ring_valid():
    from finring.jsonio import ring_from_obj

    for obj in (rings.upper_triangular(3, 4), rings.matrix_ring(2, 3), rings.dual_square()):
        for seed in range(3):
            ring_from_obj(rings.basis_change(obj, random.Random(seed)))


def test_closed_form_answers():
    assert [workloads.kezlan(2, 8), workloads.kezlan(2, 9), workloads.kezlan(4, 2)] == [32, 54, 64]
    assert workloads.FIXTURE_AUT["t2_z4"] == 8


def test_checker_rejects_planted_wrong_answers(tmp_path):
    wl = _build(tmp_path, "aut_ladder", 1)
    rf = wl.files["T2(Z8)"]
    good = {"aut_order": 32, "ring": {"hash": rf.hash}}
    workloads.check_aut(rf, 32)(good)
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_aut(rf, 32)(dict(good, aut_order=31))
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_not_found({"found": True, "isomorphism": None})
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_synth({"images": [[1]]})({"isomorphism": {"images": [[0]]}})


class _PlantedCli:
    """Stands in for finring.cli and answers every query with a wrong count."""

    @staticmethod
    def main(argv):
        print(json.dumps({"aut_order": 1, "ring": {"hash": "0"}}))
        return 0


def test_runner_counts_a_wrong_answer_as_failed(tmp_path):
    wl = _build(tmp_path, "aut_ladder", 1)
    p = run.run_pass(_PlantedCli, wl)
    assert p.errors == len(p.times) == 6
    assert p.answered == 0


def _traced_queries():
    f = str(FIXTURES)
    return [
        ["aut", f + "/t2_f2.json"],
        ["iso-search", f + "/z6.json", f + "/z2xz3.json"],
        ["iso-decompose", f + "/t2_f2.json", f + "/t2_f2.json", f + "/maps/t2_f2_inner.json"],
        ["report", "--oracle", f + "/three_block.json"],
    ]


def test_wrappers_are_removed_completely():
    tracer = spans.Tracer()
    tracer.install()
    patched = tracer.patched
    assert len(patched) >= len(spans.TARGETS)
    for owner, attr, original in patched:
        assert vars(owner)[attr] is not original
    tracer.remove()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original
    assert tracer.patched == []


def test_two_traced_runs_give_identical_counters():
    tracer = spans.Tracer()
    tracer.install()
    try:
        seen = []
        for _ in range(2):
            tracer.reset()
            for argv in _traced_queries():
                assert run.run_query(cli, argv)[0] == 0
            seen.append((dict(tracer.counts), dict(tracer.self_s), dict(tracer.total_s)))
            produced = tracer.layer_values()
    finally:
        tracer.remove()
    (counts1, self1, total1), (counts2, _, _) = seen
    assert counts1 == counts2
    # every reported per-layer name is one the wrappers produce
    assert set(run.PER_LAYER) - set(produced) == {"cli.refused", "trace.overhead_s"}
    assert counts1["cli.calls"] == 4 and counts1["oracle.calls"] > 0
    # every span sits under a cli.main span, so self times add up to its total
    assert sum(self1.values()) == pytest.approx(total1["cli"], rel=1e-6)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "aut_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
