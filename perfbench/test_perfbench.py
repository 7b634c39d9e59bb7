"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q        # from the repository root, 2-3 minutes

Each workload runs once at minimal length in both modes; the corruption tests
show that a damaged output or gate input raises the error rate above 0.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYER_SELF_TIMES = ("spectral.s", "families.s", "moi.s", "taylor.s", "ssf.s", "rng.s",
                    "matrix_io.s", "harness.s", "cli.s")


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def largest_other(values, exclude):
    return max(values[k]["value"] for k in LAYER_SELF_TIMES if k not in exclude)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_reports_every_metric_with_its_unit(workload, trace):
    got = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert got.returncode == 0, got.stderr
    line = json.loads(got.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    m = line["metrics"]
    if trace == "0":
        assert all(v["value"] > 0 for v in m.values())
        return
    assert m["trace.coverage"]["value"] > 0 and m["trace.overhead_ratio"]["value"] > 0
    # the profile ranking each workload was chosen for
    if workload == "ssf_file":
        assert m["ssf.fourier_s"]["value"] > largest_other(m, ("ssf.s",))
    elif workload == "suite_stress":
        moi = m["moi.s"]["value"] + m["families.dd_s"]["value"]
        assert moi > largest_other(m, ("moi.s", "families.s"))


def corrupt_after(monkeypatch, nth, damage):
    """Make run.invoke apply ``damage(invocation)`` to its ``nth`` invocation."""
    real = run.invoke
    calls = []

    def invoke(*args, **kwargs):
        inv = real(*args, **kwargs)
        calls.append(inv)
        if len(calls) == nth:
            damage(inv)
        return inv

    monkeypatch.setattr(run, "invoke", invoke)


def test_one_corrupt_output_byte_raises_error_rate(monkeypatch):
    def flip_byte(inv):
        path = inv.cwd / "out" / "counterexample.csv"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))

    corrupt_after(monkeypatch, 2, flip_byte)
    res = run.run("suite_default", 7, 0.0, trace=False)
    assert res["gates"]["failed_names"] == ["report_identical"]
    assert res["gates"]["error_rate"] > 0
    assert run.result_line(res)["correct"] is False


def test_one_corrupt_gate_input_raises_error_rate(monkeypatch):
    def fail_one_record(inv):
        path = inv.cwd / "out" / "report_all.json"
        path.write_text(path.read_text().replace('"passed": true', '"passed": false', 1))

    corrupt_after(monkeypatch, 1, fail_one_record)
    res = run.run("suite_default", 7, 0.0, trace=False)
    assert "records_pass" in res["gates"]["failed_names"]
    assert res["gates"]["error_rate"] > 0


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    got = bench("--workload", "suite_default", "--seed", "7", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert got.returncode != 0
    assert '"correct"' not in got.stdout
