"""Self-test of the end-to-end benchmark (not part of tier-1).

    pytest e2ebench/test_e2e.py
"""

import json

import pytest

import e2e
import jobs
import probe


def run(capsys, *argv):
    code = e2e.main(list(argv))
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def records_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(e2e, "OUT_DIR", tmp_path / "records")


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, out, last = run(capsys, "--workload", workload, "--seed", "3",
                          "--smoke", "--trace", trace)
    assert code == 0
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    spec = json.loads((e2e.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    lines = out.splitlines()
    for m in wanted:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                   for line in lines), m["name"]


def test_corrupted_golden_entry_fails_the_run(capsys, tmp_path, monkeypatch):
    golden = json.loads(e2e.GOLDEN.read_text())
    golden["fig12_warm"]["fbench/native"]["stdout_sha256"] = "0" * 64
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    monkeypatch.setattr(e2e, "GOLDEN", bad)
    code, out, last = run(capsys, "--workload", "fig12_warm", "--smoke")
    assert code == 1
    assert not last["correct"] and last["failed"] >= 1
    fail_rate = next(float(line.split()[1]) for line in out.splitlines()
                     if line.split()[:1] == ["fail_rate"])
    assert fail_rate > 0


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_job_list_is_a_pure_function_of_the_seed(workload):
    for rnd in range(3):
        assert jobs.round_jobs(workload, 5, rnd) == \
            jobs.round_jobs(workload, 5, rnd)
    assert jobs.round_jobs(workload, 5, 0) != jobs.round_jobs(workload, 6, 0)
    if workload in ("fig12_warm", "cold_oneshot"):
        assert jobs.round_jobs(workload, 5, 0) != \
            jobs.round_jobs(workload, 5, 1)


def test_self_time_on_synthetic_nested_spans():
    # job [0, 10] > machine.run [1, 8] > two decodes [3, 4] and [4.5, 7]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 7.0, 8.0, 10.0])
    tracer = probe.Tracer(clock=lambda: next(ticks))
    decode = tracer.wrap("fpvm.decode", lambda: None)
    with tracer.span("job", job="j"):
        with tracer.span("machine.run"):
            decode()
            decode()
    layers = tracer.layers()
    assert layers["fpvm.decode"] == [2, 3.5, 3.5]
    assert layers["machine.run"] == [1, 7.0, 3.5]
    assert layers["job"] == [1, 10.0, 3.0]
    job, run_span = sorted(tracer.spans, key=lambda s: s["start"])
    assert run_span["parent"] == job["id"] and job["parent"] is None
    metrics = tracer.layer_metrics(rounds=1, overhead_x=1.0)
    assert metrics["machine.run_self_s"] == 3.5
    assert metrics["bench.attributed_frac"] == pytest.approx(0.7)
