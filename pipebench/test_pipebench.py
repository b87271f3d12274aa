"""Tests of the benchmark itself (not of pairdva).

    python3 -m pytest -q pipebench/test_pipebench.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def fake_base(slope):
    t = np.arange(2000.0)
    return SimpleNamespace(t=t, v_t=4.1 - slope * t,
                           i_total=np.full(len(t), -40.0))


BASES = [fake_base(4e-4), fake_base(3e-4)]


@pytest.fixture(scope="module")
def ref():
    return wl.load_reference()


def test_lab_inputs_repeat_per_index_and_differ_between_indices():
    assert wl.lab_csv(17, BASES) == wl.lab_csv(17, BASES)
    texts = {wl.lab_csv(i, BASES) for i in range(200)}
    assert len(texts) == 200
    header, first = wl.lab_csv(3, BASES).splitlines()[:2]
    assert header == "t_s,i_total_A,vt_V"
    assert len(first.split(",")[2].split(".")[1]) == 4   # 0.1 mV steps


def test_lab_operations_never_repeat_an_entry(ref, tmp_path):
    lab = wl.LabTraces(5, tmp_path, ref)
    lab.pool = list(range(wl.LAB_POOL))
    lab.cap = len(lab.pool)
    rng = np.random.default_rng([5, 3])
    lab.start = int(rng.integers(lab.cap))
    lab.stride = wl.coprime_stride(rng, lab.cap)
    entries = [lab.entry(j) for j in range(lab.cap)]
    assert sorted(entries) == lab.pool


def test_sweep_grid_is_a_function_of_seed_and_call(ref, tmp_path):
    a, b = wl.SweepGrid(9, tmp_path, ref), wl.SweepGrid(9, tmp_path, ref)
    a.setup()
    b.setup()
    assert [a.prepare(j) for j in range(3)] == [b.prepare(j)
                                                for j in range(3)]
    assert a.prepare(0) != a.prepare(1)
    assert a.ops(a.prepare(0)) == 20
    other = wl.SweepGrid(10, tmp_path, ref)
    other.setup()
    assert other.prepare(0) != a.prepare(0)


def test_single_pair_inputs_are_a_function_of_seed(ref, tmp_path):
    runs = []
    for sub in ("a", "b"):
        sp = wl.SinglePair(11, tmp_path / sub, ref)
        sp.setup()
        runs.append((sp.pairs, sp.curve_path.read_bytes(), sp.expected))
    assert runs[0] == runs[1]
    pairs = runs[0][0]
    assert pairs[0] == wl.lattice_index(*wl.BALANCED)
    assert len(set(pairs)) == 4


def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(100) == 0.90
    assert stats.tail_percentile(199) == 0.90
    assert stats.tail_percentile(200) == 0.95
    assert stats.tail_percentile(999) == 0.95
    assert stats.tail_percentile(1000) == 0.99
    assert set(stats.summary(list(range(20)))) == {"n", "p50"}
    assert stats.summary(list(range(201)))["p95"] == pytest.approx(190.0)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    values = [float(v) for v in range(1, 11)]
    q1, _, q3 = 2.75, 5.5, 8.25
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)


def test_normalise_divides_by_the_probes_around_each_call():
    latency = [4.0, 6.0, 8.0, 3.0]
    # probes before call 0, before call 2, after the last call
    probes = [(0, 1.0), (2, 3.0), (4, 1.0)]
    assert probe.normalise(latency, probes) == [2.0, 3.0, 4.0, 1.5]
    assert probe.normalise([5.0], [(0, 2.0), (1, 3.0)]) == [2.0]


def test_self_time_and_uncovered_time():
    spans = [
        ["op", 0.0, 10.0, None, 0, None],
        ["cli.main", 1.0, 9.0, 0, 0, None],
        ["kernels.pair_rk4", 2.0, 5.0, 1, 0, 7],
        ["fileio.write_trace_csv", 5.0, 6.0, 1, 0, None],
    ]
    table = tracing.layer_table(spans)
    assert table["cli.main"]["self"] == [4.0]
    assert table["op"]["self"] == [2.0]
    metrics = tracing.layer_metrics(table)
    assert metrics["uncovered_frac"] == (0.2, "ratio")
    assert metrics["kernels.rk4_steps"] == (7.0, "count")
    assert metrics["sweep.product_curve_s"] == (0.0, "s")


def test_instrument_records_only_inside_operations_and_restores():
    import pairdva
    from pairdva import sweep
    original = sweep.identify_product
    tracer = tracing.Tracer()
    with tracing.patched(tracing.bindings(tracer)):
        assert pairdva.identify_product is not original
        assert sweep.identify_product is not original
        with pytest.raises(pairdva.SweepError):
            pairdva.identify_product(None, pairdva.ProductCurve(rows=[]))
        assert tracer.spans == []
        with tracer.operation(3):
            with pytest.raises(pairdva.SweepError):
                pairdva.identify_product(None, pairdva.ProductCurve(rows=[]))
    assert sweep.identify_product is original
    assert pairdva.identify_product is original
    assert [s[0] for s in tracer.spans] == ["op", "sweep.identify_product"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 3


def test_paired_measure_repeats_an_input_only_when_allowed(tmp_path):
    import run

    class Fake(wl.Workload):
        def prepare(self, j):
            return j

        def run(self, inp):
            self.seen.append(inp)

        def check(self, inp, out):
            return None

    for repeatable, cap, want in ((True, 3, [0, 0, 1, 1]),
                                  (False, 5, [0, 1, 2, 3])):
        fake = Fake(0, tmp_path, None)
        fake.seen, fake.repeatable, fake.cap = [], repeatable, cap
        tracer = tracing.Tracer()
        plain, traced = run.measure_paired(fake, 60.0, wl.GateError, tracer,
                                           tracing.bindings(tracer))
        assert fake.seen == want
        assert [s[4] for s in tracer.spans] == want[1::2]
        assert plain.attempted == traced.attempted == 2
