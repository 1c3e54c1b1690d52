"""Tests of the benchmark itself: the seeded generator, the dimension
oracle, the output checker and the tracing harness."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
for p in (str(REPO / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import pytest  # noqa: E402

import toriccsm  # noqa: E402
import toriccsm.cli  # noqa: E402
import checker  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Factor, oracle_dims, oracle_max_cones  # noqa: E402


def _generate(name, seed, where):
    rounds = workloads.generate(toriccsm, name, seed, where)
    return [c for rnd in rounds for c in rnd]


def _files(where):
    return {p.name: p.read_text() for p in sorted(where.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    a = _generate("singular-batch", 7, tmp_path / "a")
    b = _generate("singular-batch", 7, tmp_path / "b")
    c = _generate("singular-batch", 8, tmp_path / "c")
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert a != c
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_every_round_has_the_same_shapes(tmp_path):
    # dims[1] is rays - dim, the rank of the degree-1 piece.
    for name in workloads.WORKLOADS:
        rounds = {}
        for c in _generate(name, 3, tmp_path / name):
            rounds.setdefault(c.round, []).append((len(c.dims) - 1, c.dims[1], c.command))
        first = sorted(rounds[0])
        assert all(sorted(r) == first for r in rounds.values())


@pytest.mark.parametrize(
    "factors, dims",
    [
        ([Factor("pn", (3,))], (1, 1, 1, 1)),
        ([Factor("hirzebruch", (5,))], (1, 2, 1)),
        ([Factor("wps", (1, 2, 3))], (1, 1, 1)),
        ([Factor("pn", (1,)), Factor("hirzebruch", (5,)), Factor("wps", (1, 2, 3))], (1, 4, 7, 7, 4, 1)),
    ],
)
def test_oracle_dims(factors, dims):
    assert oracle_dims(factors) == dims
    assert sum(dims) == oracle_max_cones(factors)


def test_oracle_agrees_with_the_program_on_a_product():
    factors = [Factor("hirzebruch", (5,)), Factor("wps", (1, 2, 3))]
    fan = toriccsm.product(toriccsm.hirzebruch(5), toriccsm.weighted_projective([1, 2, 3]))
    assert toriccsm.graded_dimensions(toriccsm.build_presentation(fan)) == oracle_dims(factors)


@pytest.fixture
def good_op(tmp_path):
    """A real csm op on one generated singular fan, with its digest."""
    case = next(c for c in _generate("singular-batch", 0, tmp_path) if c.command == "csm")
    rc, out = _run_op(case, tmp_path)
    assert rc == 0
    return case, out, checker.output_digest(*checker.parse_output(case, out))


def _run_op(case, where):
    from run import call_main

    return call_main(toriccsm, case.argv(where))


def _edit(out, fn):
    data = json.loads(out)
    fn(data)
    return json.dumps(data)


def test_checker_passes_a_good_op(good_op):
    case, out, digest = good_op
    assert checker.check_output(case, 0, out, digest) is None


def test_checker_flags_bad_ops(good_op):
    case, out, digest = good_op

    def wrong_chi(d):
        d["euler"] += 1

    def wrong_dims(d):
        dims = d["presentation"]["graded_dimensions"]
        dims[0] += 1
        dims[-1] += 1  # still palindromic, but not the oracle's

    def lopsided_dims(d):
        d["presentation"]["graded_dimensions"][0] += 1

    def no_leading_one(d):
        d["csm"] = "2" + d["csm"][1:]

    def changed_class(d):
        d["csm"] = d["csm"] + " + x0"

    assert "chi" in checker.check_output(case, 0, _edit(out, wrong_chi), digest)
    assert "oracle" in checker.check_output(case, 0, _edit(out, wrong_dims), digest)
    assert "differ" in checker.check_output(case, 0, _edit(out, lopsided_dims), digest)
    assert "constant term" in checker.check_output(case, 0, _edit(out, no_leading_one), digest)
    assert "digest" in checker.check_output(case, 0, _edit(out, changed_class), digest)
    assert checker.check_output(case, 0, _edit(out, changed_class)) is None
    assert "exit code" in checker.check_output(case, 3, out, digest)
    assert "JSON" in checker.check_output(case, 0, out[:-5], digest)


def test_seed0_digests_cover_every_generated_fan():
    recorded = json.loads(checker.DIGEST_FILE.read_text())
    assert set(recorded) == set(workloads.WORKLOADS)
    for name, w in workloads.WORKLOADS.items():
        per_round = len(w.draw_round(random.Random(0)))
        assert len(recorded[name]) == w.rounds * per_round


def test_reference_scale_uses_samples_around_the_op():
    ref = reference.ReferenceClock()
    nominal = reference.REF_NOMINAL_S
    # Samples every 0.5 s; the host is twice as slow from t = 10 on.
    ref.mid = [0.5 * i for i in range(40)]
    ref.wall = [nominal if t < 10 else 2 * nominal for t in ref.mid]
    ref.cpu = list(ref.wall)
    assert ref.scale(3.0, 4.0) == pytest.approx((1.0, 1.0))
    assert ref.scale(15.0, 16.0) == pytest.approx((0.5, 0.5))
    # Far from any sample, the nearest one on each side still counts.
    ref.mid, ref.wall, ref.cpu = [0.0, 100.0], [nominal, 3 * nominal], [nominal, 3 * nominal]
    assert ref.scale(40.0, 41.0) == pytest.approx((0.5, 0.5))


def test_self_times_split_overlapping_workers():
    # root [0, 10] -> a [1, 9] on the main thread; two pool workers under a
    # overlap on [3, 4], where each gets half of the time.
    spans = [
        (1, None, "root", 0, 0.0, 10.0, None),
        (2, 1, "a", 0, 1.0, 9.0, None),
        (3, 2, "w", 1, 2.0, 4.0, None),
        (4, 2, "w", 2, 3.0, 6.0, None),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({1: 2.0, 2: 4.0, 3: 1.5, 4: 2.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_traced_self_times_sum_to_op_wall_time(tmp_path):
    cases = _generate("singular-batch", 1, tmp_path)[:16]
    t = tracer.Tracer(toriccsm)
    t.install()
    try:
        ops = [t.run_op(lambda c=c: _run_op(c, tmp_path)) for c in cases]
    finally:
        t.uninstall()
    assert toriccsm.chow.rational_rref is toriccsm.exact_linalg.rational_rref
    for (rc, out), op in ops:
        assert rc == 0
        assert abs(sum(op.self.values()) - op.wall) <= tracer.SELF_SUM_TOLERANCE_S
        assert op.calls[tracer.ROOT] == 1
    saw_worker = False
    for _op, _span, parent, _name, thread in zip(*t._cols[:5]):
        if thread != 0:
            saw_worker = True
            assert parent != 0
    assert saw_worker, "no pool worker spans: the default --threads pool did not run"


def _bench(*args, cwd):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_benchmark_prints_its_result_line(trace, kind):
    proc = _bench("--workload", "singular-batch", "--seed", "2", "--seconds", "0.2", "--trace", trace, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in bench[kind]}


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "singular-batch", "--seconds", "0.2", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
