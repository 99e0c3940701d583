"""Smoke test of the benchmark suite (run explicitly; tier-1 does not collect it)::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite_smoke.py -q

Runs all five workloads once in ``--smoke`` mode (1 000 persons, 1 s
intervals), untraced and traced, and checks what the result files must hold.
"""

from __future__ import annotations

import glob
import json
import os
import re
import subprocess
import sys

import pytest

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
sys.path[:0] = [ROOT]

from benchmarks.suite import compare, dataset  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """One smoke run of the whole suite; ``{(workload, mode): result}``."""
    out = str(tmp_path_factory.mktemp("suite"))
    done = subprocess.run(
        [sys.executable, os.path.join(SUITE, "run.py"), "--smoke", "--out", out],
        capture_output=True, text=True, timeout=900, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["claim"] is None
    loaded = {"out": out, "summary": summary, "stdout": done.stdout}
    for path in glob.glob(os.path.join(out, "*.json")):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        loaded[(result["workload"], result["mode"])] = result
    return loaded


def test_dataset_is_deterministic():
    dataset.self_test()


def test_names_are_well_formed(spec):
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in spec[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(metric["name"] == "setup_s" and metric["unit"] == "s"
               for metric in spec["end_to_end"])


def test_every_metric_is_emitted_with_its_unit(spec, results):
    for workload in (entry["name"] for entry in spec["workloads"]):
        for mode in ("end_to_end", "per_layer"):
            emitted = results[(workload, mode)]["metrics"]
            expected = {metric["name"]: metric["unit"] for metric in spec[mode]}
            assert {name: metric["unit"] for name, metric in emitted.items()} == expected
            assert all(isinstance(metric["value"], (int, float)) for metric in emitted.values())
            for name, unit in expected.items():
                assert f"{name} " in results["stdout"] and unit in results["stdout"]


def test_nothing_failed(spec, results):
    assert results["summary"]["correct"] and results["summary"]["failed"] == 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        untraced = results[(workload, "end_to_end")]
        assert untraced["failed"] == 0, (untraced["checks"], untraced["errors"])
        assert untraced["metrics"]["ok_share"]["value"] == 1.0
        traced = results[(workload, "per_layer")]
        assert traced["failed"] == 0 and traced["metrics"]["failed_share"]["value"] == 0.0
        assert "obs.tracing_overhead_share" in traced["metrics"]


def test_scaled_timings_keep_what_was_measured(spec, results):
    for workload in (entry["name"] for entry in spec["workloads"]):
        untraced = results[(workload, "end_to_end")]
        slowdown = untraced["host_witness_us"] / untraced["reference_witness_us"]
        assert slowdown > 0
        measured, scaled = untraced["as_measured"], untraced["metrics"]
        assert scaled["read_p50_ms"]["value"] == pytest.approx(measured["read_p50_ms"] / slowdown)
        assert scaled["read_ops_per_s"]["value"] == pytest.approx(
            measured["read_ops_per_s"] * slowdown
        )
    paced = results[("scan_si", "end_to_end")]
    assert paced["metrics"]["write_ops_per_s"]["value"] == paced["as_measured"]["write_ops_per_s"]


def test_shared_op_streams_are_byte_identical(results):
    digests = {
        workload: results[(workload, "end_to_end")]["stream_sha256"]
        for workload in ("oltp_si", "oltp_ssi", "server_oltp")
    }
    assert digests["oltp_si"] == digests["oltp_ssi"] == digests["server_oltp"]


def test_span_self_times_add_up(spec, results):
    for workload in (entry["name"] for entry in spec["workloads"]):
        path = os.path.join(results["out"], f"{workload}.spans.jsonl")
        with open(path, encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans, workload
        own: dict = {}
        for span in spans:
            own[span["op"]] = own.get(span["op"], 0.0) + span["self"]
        roots = [span for span in spans if span["parent"] is None]
        assert roots and all(span["name"].startswith("op.") for span in roots)
        for root in roots:
            duration = root["end"] - root["start"]
            assert abs(own[root["id"]] - duration) <= 0.05 * duration, (workload, root)
    embedded = os.path.join(results["out"], "oltp_si.spans.jsonl")
    with open(embedded, encoding="utf-8") as handle:
        names = {json.loads(line)["name"] for line in handle}
    # Engine phase marks hang under the harness's begin and commit spans.
    assert {"api.begin", "query.execute", "api.commit_rw", "core.begin", "core.wal"} <= names


def test_compare_agrees_with_itself(results, capsys):
    assert compare.main([results["out"], results["out"]]) == 0
    table = capsys.readouterr().out
    assert " worse" not in table
