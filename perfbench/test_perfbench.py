"""Tests of the benchmark itself: each check rejects a planted wrong answer,
traced counts are deterministic, and the metric names match BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bivirus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from bivirus import sim  # noqa: E402

COUNT_SUFFIXES = (".calls", ".evals", ".iters", ".roots", ".records",
                  ".errors", ".seeds", ".retries", ".unresolved")


def _replace_eq(rep, kind, **changes):
    """Copy of an analysis report with the first equilibrium of `kind`
    changed."""
    eqs = list(rep.enumeration.equilibria)
    k = next(i for i, e in enumerate(eqs) if e.kind == kind)
    eqs[k] = dataclasses.replace(eqs[k], **changes)
    enum = dataclasses.replace(rep.enumeration, equilibria=eqs)
    return dataclasses.replace(rep, enumeration=enum)


# ---------------------------------------------------------------------------
# checks reject planted wrong answers

@pytest.fixture(scope="module")
def case2_answer():
    case = W.case2_inputs(1)[0]
    return case, W.case2_op(case.system, sim.GridSpec(n_a=5, n_b=5))


def test_case2_check_accepts_true_answer(case2_answer):
    assert W.case2_check(*case2_answer) is None


def test_case2_check_rejects_flipped_basin_label(case2_answer):
    case, (enum, sandwich, probe) = case2_answer
    legend = probe.legend
    v1, v2 = legend.index("boundary_virus1"), legend.index("boundary_virus2")
    labels = probe.labels.copy()
    # the start with the most virus 1 and the least virus 2 goes to virus 1;
    # relabel it virus 2 while a start below it in the order stays virus 1
    assert labels[-2, 0] == v1
    labels[-2, 0] = v2
    bad = dataclasses.replace(probe, labels=labels)
    verdict = W.case2_check(case, (enum, sandwich, bad))
    assert verdict[0] == "wrong" and "monotone" in verdict[1]


def test_case2_check_counts_unresolved_as_inconclusive(case2_answer):
    case, (enum, sandwich, probe) = case2_answer
    labels = probe.labels.copy()
    labels[0, 0] = sim.LABEL_UNRESOLVED
    bad = dataclasses.replace(probe, labels=labels)
    assert W.case2_check(case, (enum, sandwich, bad))[0] == "inconclusive"


def test_case2_check_rejects_agreeing_corners(case2_answer):
    case, (enum, sandwich, probe) = case2_answer
    bad = dataclasses.replace(sandwich, agree=True)
    assert W.case2_check(case, (enum, bad, probe))[0] == "wrong"


@pytest.fixture(scope="module")
def lifted_answer():
    case = W.lifted_inputs(1)[0]
    return case, W.analyze_op(case.system)


def test_lifted_check_accepts_true_answer(lifted_answer):
    assert W.lifted_check(*lifted_answer) is None


def test_lifted_check_rejects_wrong_class(lifted_answer):
    case, rep = lifted_answer
    bad = _replace_eq(rep, "coexistence", spectrum_class="stable")
    assert W.lifted_check(case, bad)[0] == "wrong"


def test_lifted_check_rejects_shifted_block_mean(lifted_answer):
    case, rep = lifted_answer
    e = rep.enumeration.of_kind("coexistence")[0]
    state = bivirus.State(e.state.x1 + 0.06, e.state.x2)
    assert W.lifted_check(case, _replace_eq(rep, "coexistence",
                                            state=state))[0] == "wrong"


def test_lifted_check_rejects_boundary_disagreement(lifted_answer):
    case, rep = lifted_answer
    bad = _replace_eq(rep, "boundary_virus1", spectrum_class="unstable")
    assert W.lifted_check(case, bad)[0] == "wrong"


@pytest.fixture(scope="module")
def weak_answer():
    case = W.weak_inputs(1)[0]
    assert case.info["eps"] == 1e-1
    return case, W.analyze_op(case.system)


def test_weak_check_accepts_true_answer(weak_answer):
    assert W.weak_check(*weak_answer) is None


def test_weak_check_rejects_r_off_by_1e6(weak_answer):
    case, rep = weak_answer
    r1, r2 = rep.reproduction_numbers
    bad = dataclasses.replace(rep, reproduction_numbers=(r1 * (1 + 1e-6), r2))
    assert W.weak_check(case, bad)[0] == "wrong"


def test_weak_check_rejects_large_residual(weak_answer):
    case, rep = weak_answer
    bad = _replace_eq(rep, "healthy", residual=1e-7)
    assert W.weak_check(case, bad)[0] == "wrong"


@pytest.fixture(scope="module")
def stiff_answer():
    case = W.stiff_inputs(1)[0]
    res = W.stiff_op(case.system)
    assert res.conclusive and res.agree
    return case, res


def test_stiff_check_accepts_true_answer(stiff_answer):
    assert W.stiff_check(*stiff_answer) is None


def test_stiff_check_rejects_moved_limit(stiff_answer):
    case, res = stiff_answer
    moved = bivirus.State(res.limit_A.x1 + 1e-5, res.limit_A.x2)
    bad = dataclasses.replace(res, limit_A=moved, limit_B=moved)
    assert W.stiff_check(case, bad)[0] == "wrong"


def test_stiff_check_counts_inconclusive(stiff_answer):
    case, res = stiff_answer
    bad = dataclasses.replace(res, conclusive=False)
    assert W.stiff_check(case, bad)[0] == "inconclusive"


def test_grade_counts_raised_and_wrong(lifted_answer):
    case, rep = lifted_answer
    wl = W.WORKLOADS["lifted_analyze"]
    bad = _replace_eq(rep, "coexistence", spectrum_class="stable")
    error = bivirus.ConvergenceError("planted")
    failed, wrong, notes = run.grade(wl, [case] * 3, [rep, bad, error])
    assert (failed, wrong, len(notes)) == (2, 1, 2)


# ---------------------------------------------------------------------------
# tracing

def _traced_counts(seed):
    wl = W.WORKLOADS["lifted_analyze"]
    inputs = wl.make_inputs(seed)[:2]
    tracer = spans.Tracer(bivirus)
    with tracer:
        run.run_pass(wl, inputs, W.FAILURES, tracer)
    metrics = run.layer_metrics(spans, tracer.spans, 0.0)
    return metrics, {k: v for k, v in metrics.items()
                     if k.endswith(COUNT_SUFFIXES)}


def test_traced_counts_repeat_on_one_seed_and_move_on_another():
    _, first = _traced_counts(1)
    _, again = _traced_counts(1)
    _, other = _traced_counts(2)
    assert first == again
    assert first != other
    assert first["model.jacobian.calls"] > first["equilibria.newton.iters"] > 0


def test_tracer_restores_module_attributes():
    before = bivirus.model.field, bivirus.speclin.spectral_radius
    with spans.Tracer(bivirus):
        assert bivirus.model.field is not before[0]
    assert (bivirus.model.field, bivirus.speclin.spectral_radius) == before


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = _traced_counts(1)
    metrics["trace.overhead_frac"] = 0.0
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["workloads"]} <= set(W.WORKLOADS)
