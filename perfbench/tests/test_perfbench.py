"""Tests of the benchmark itself: oracle failures are counted, traced
counts repeat, and the command line keeps its output contract.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402

run.import_program()

import tracer  # noqa: E402
import workloads  # noqa: E402

REPEATING = ("linalg.rref.entries", "homology.nakayama.width_max",
             "homology.nakayama.width_sum", "ar.orbit_stages", "cy.nu_powers")


def ops_named(workload, names, seed=1):
    ops = {op.name: op for op in workloads.make_inputs(workload, seed)}
    return [ops[n] for n in names]


def test_workload_names_match():
    assert list(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_same_seed_same_inputs():
    for name in run.WORKLOAD_NAMES:
        a = workloads.make_inputs(name, 3)
        b = workloads.make_inputs(name, 3)
        assert [op.name for op in a] == [op.name for op in b]
        assert [op.expect for op in a] == [op.expect for op in b]


def test_corpus_oracle_rows_agree_with_the_fraction_formula():
    for stem, (n, is_nrf, a, b, ell, dim) in workloads.CORPUS_CY.items():
        if is_nrf:
            assert dim == Fraction(n * (b - a), b), stem


def test_wrong_expectation_is_counted_as_a_failure():
    good = ops_named("bimodule", ["bimodule/gamma_1_3", "bimodule/preprojective_1_3/1"])
    wrong = workloads.Op("wrong", good[0].run, {"bijection": False, "selfinjective": True})

    def boom():
        raise ValueError("deliberate")

    raising = workloads.Op("raising", boom, {})
    tally = run.Tally()
    tally.run([wrong, good[0], raising, good[1]])
    assert tally.attempted == 4
    assert [f["op"] for f in tally.failures] == ["wrong", "raising"]
    assert "deliberate" in tally.failures[1]["got"]


def test_tail_is_fixed_per_pass_and_never_below_the_median():
    # passes under 20 verdicts: the nearest-rank p90 of each pass, median
    # over passes; the maximum of a pass under 10
    label = "p90 of each pass (rank {}), median over passes"
    assert run.tail([3.0, 1.0, 2.0], 3) == (3.0, label.format(3))
    assert run.tail([3.0, 1.0, 2.0, 9.0, 5.0, 4.0, 6.0, 7.0, 8.0], 3)[0] == 8.0
    twelve = [float(i) for i in range(1, 13)]
    assert run.tail(twelve, 12) == (11.0, label.format(11))
    assert run.tail(twelve[::-1] + [t + 0.5 for t in twelve], 12)[0] == 11.25
    # larger passes: ten verdicts of each pass beyond it
    one_pass = [float(i) for i in range(1, 66)]
    value, label = run.tail(one_pass, 65)
    assert value == 55.0 and sum(t > value for t in one_pass) == 10
    assert label == "p84.6"
    two_passes = one_pass + [t + 0.5 for t in one_pass]
    value, label = run.tail(two_passes, 65)
    assert sum(t > value for t in two_passes) == 20 and label == "p84.6"
    assert run.tail([float(i) for i in range(1, 21)], 20) == (10.0, "p50.0")


def test_probe_removes_its_samples_and_scales_by_the_kernel():
    probe = speed.SpeedProbe()
    # a machine at half the nominal speed, sampled every 0.1 s
    probe.when = [k / 10 for k in range(30)]
    probe.took = [2 * speed.KERNEL_NOMINAL_S] * 30
    own = 1.0 - 10 * 2 * speed.KERNEL_NOMINAL_S  # samples at 1.0 .. 1.9
    assert probe.normalize(1.0, 2.0) == pytest.approx(own / 2)
    # one sample stretched 20x by a deschedule does not move the scale
    probe.took[15] = 40 * speed.KERNEL_NOMINAL_S
    own -= 38 * speed.KERNEL_NOMINAL_S
    assert probe.normalize(1.0, 2.0) == pytest.approx(own / 2)


def test_probe_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        sum(range(10**6))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.took) >= 2


def traced_report(seed):
    ops = workloads.make_inputs("corpus_cy", seed)
    ops = [op for op in ops if op.name != "corpus_cy/kronecker"]
    ops += ops_named("bimodule", ["bimodule/untwisted_a2_tensor_a2",
                                  "bimodule/gamma_2_4",
                                  "bimodule/auslander_a3_stable"], seed)
    ops += workloads.make_inputs("cuts_2_4", seed)[:3]
    tally, report, units, extra = run.run_traced(ops, None)
    assert not tally.failures
    assert set(report) == set(units) == set(tracer.metric_units())
    return report


def test_traced_counts_repeat_with_the_same_seed():
    first, second = traced_report(5), traced_report(5)
    counts = [k for k in first if k.endswith(".calls") or k in REPEATING]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["cy.nu_powers"] > 0 and first["homology.nakayama.width_max"] > 0
    assert first["algebra.Algebra.mul_elt.calls"] > 0


def test_certificates_count_only_accepted_searches():
    # a2 has its certificate at l = 3 (dimension 1/3); the l = 2 scan
    # computes two powers and finds none, the l = 3 check three and one
    a2 = workloads.corpus_file("a2").build(name="a2")
    from quivercy import cy

    t = tracer.Tracer()
    t.install()
    try:
        assert cy.check_twisted_cy(a2, 2, 1) is False
        assert cy.check_twisted_cy(a2, 3, 1) is True
    finally:
        t.uninstall()
    report = t.report()
    assert report["cy.nu_powers"] == 5
    assert report["cy.certs_per_nu_power"] == pytest.approx(1 / 5)


def test_tracer_uninstall_restores_every_function():
    from quivercy import cy, homology, linalg

    before = (homology.nakayama, cy.nakayama, linalg.Mat.__mul__)
    t = tracer.Tracer()
    t.install()
    assert cy.nakayama is homology.nakayama is not before[0]
    t.uninstall()
    assert (homology.nakayama, cy.nakayama, linalg.Mat.__mul__) == before


def test_command_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "bimodule",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 14
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert "failed_frac" in out.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "bimodule",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_compare_refuses_mixed_backends(tmp_path):
    import compare

    def sweep_file(name, backend):
        path = tmp_path / name
        run_doc = {"context": {"workload": "cuts_2_4", "backend": backend},
                   "metrics": {"verdicts_per_s": 1.0}}
        path.write_text(json.dumps({"runs": [run_doc]}))
        return str(path)

    base = sweep_file("base.json", "fraction")
    assert compare.main([base, sweep_file("same.json", "fraction")]) == 0
    with pytest.raises(SystemExit, match="cannot compare backend fraction with gmpy2"):
        compare.main([base, sweep_file("other.json", "gmpy2")])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_benchmark_json_names_every_workload(name):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert name in [w["name"] for w in spec["workloads"]]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
