import importlib.util
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "fold_bench.py"
_SPEC = importlib.util.spec_from_file_location("fold_bench", _PATH)
fold_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fold_bench)


def run_output(tmp_path, side, index, workload, seed, rate, setup, trace=0):
    """A run.py stdout: a metric line, the report line and the result line."""
    metrics = {"setup_s": {"value": setup, "unit": "s"},
               "frames_per_ref": {"value": rate, "unit": "1/ref"}}
    report = {"workload": workload, "seed": seed, "trace": trace, "metrics": metrics,
              "machine": {"nproc": 2, "numpy": "2.4.6"}}
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    path = tmp_path / f"{side}_{index}.out"
    path.write_text(f"setup_s {setup} s\nreport {json.dumps(report)}\n{json.dumps(result)}\n")
    return str(path)


def folded(tmp_path, parent, change, claim=None, *extra):
    """Fold (workload, seed, rate, setup) runs per side, with --claim when
    claim is given; the parsed BENCH dict."""
    paths = {side: [run_output(tmp_path, side, i, *run) for i, run in enumerate(runs)]
             for side, runs in (("parent", parent), ("change", change))}
    out = io.StringIO()
    with redirect_stdout(out):
        assert fold_bench.main(["--pr", "7", "--title", "t", "--parent-commit", "abc",
                                *(["--claim", claim] if claim else []),
                                "--note", "order=alternating", *extra,
                                "--parent", *paths["parent"], "--change", *paths["change"]]) == 0
    return json.loads(out.getvalue())


def test_fold_bench_medians_quartiles_pairs_and_claim(tmp_path):
    seeds = [1, 2, 3, 4, 5]
    parent = [("sig_batch", s, r, 1.0) for s, r in zip(seeds, [10, 11, 12, 13, 14])]
    parent += [("sig_batch", 1, 15, 1.0), ("live_stream", 1, 50, 2.0), ("sig_batch", 1, 9, 0, 1)]
    change = [("sig_batch", s, r, 0.5) for s, r in zip(seeds, [20, 21, 9, 23, 24])]
    change += [("sig_batch", 1, 30, 0.5), ("live_stream", 1, 49, 2.5), ("sig_batch", 1, 8, 0, 1)]
    bench = folded(tmp_path, parent, change, "sig_batch:frames_per_ref", "--seen-seeds", "1")
    rate = bench["workloads"]["sig_batch"]["parent"]["metrics"]["frames_per_ref"]
    assert (rate["q1"], rate["median"], rate["q3"]) == (11.25, 12.5, 13.75)
    assert rate["runs"] == [[1, 10], [2, 11], [3, 12], [4, 13], [5, 14], [1, 15]]
    pairs = bench["workloads"]["sig_batch"]["frames_per_ref_pairs"]
    assert pairs["per_pair"][0] == [1, 1, 10, 20] and pairs["per_pair"][-1] == [1, 2, 15, 30]
    claim = bench["claim"]
    assert (claim["change_wins"], claim["pairs"], claim["parent_iqr"]) == (5, 6, 2.5)
    assert (claim["unseen_change_wins"], claim["unseen_pairs"]) == (3, 4)
    assert claim["met"] is False  # 5 of 6 wins is under nine in ten
    assert bench["seeds_used_while_writing"] == [1] and bench["unseen_seeds"] == [2, 3, 4, 5]
    assert bench["traced"]["sig_batch"]["change"]["metrics"]["frames_per_ref"]["median"] == 8
    assert bench["workloads"]["live_stream"]["change_over_parent"]["setup_s"] == 1.25
    assert bench["order"] == "alternating" and bench["host"]["numpy"] == "2.4.6"
    assert bench["workloads"]["sig_batch"]["change"]["all_correct"] is True


# every pair wins both times; the second gain (0.05) is inside the parent IQR (0.2)
@pytest.mark.parametrize("change_setups, met", [
    ([0.5, 0.5, 0.5, 0.5], True),
    ([0.95, 0.55, 1.35, 0.95], False),
])
def test_fold_bench_claims_a_lower_is_better_metric(tmp_path, change_setups, met):
    parent = [("nn_train", s, 1, v) for s, v in zip([1, 2, 3, 4], [1.0, 0.6, 1.4, 1.0])]
    change = [("nn_train", s, 1, v) for s, v in zip([1, 2, 3, 4], change_setups)]
    claim = folded(tmp_path, parent, change, "nn_train:setup_s")["claim"]
    assert claim["better"] == "lower" and claim["change_wins"] == 4
    assert claim["met"] is met


# parent frames_per_ref 100-103: an IQR of 1.5 on a median of 101.5
@pytest.mark.parametrize("parent_setups, change_rates, change_setups, verdicts", [
    ([1.0] * 4, [99, 100, 101, 102], [1.3] * 4, ("ok", "worse")),
    ([1.0] * 4, [70, 80, 80, 80], [1.2] * 4, ("worse", "ok")),
    # a parent setup_s IQR of 0.3 on a median of 1.0 exceeds the 0.25 bound
    ([1.0, 0.4, 1.6, 1.0], [101] * 4, [1.3] * 4, ("ok", "unresolved")),
    ([1.0, 0.4, 1.6, 1.0], [101] * 4, [0.3] * 4, ("ok", "ok")),  # every change run beats
])
def test_fold_bench_without_a_claim_checks_each_bound(
    tmp_path, parent_setups, change_rates, change_setups, verdicts
):
    seeds = [1, 2, 3, 4]
    parent = [("sig_batch", s, r, v) for s, r, v in zip(seeds, [100, 101, 102, 103], parent_setups)]
    change = [("sig_batch", s, r, v) for s, r, v in zip(seeds, change_rates, change_setups)]
    bench = folded(tmp_path, parent, change)
    assert "claim" not in bench and "frames_per_ref_pairs" not in bench["workloads"]["sig_batch"]
    checks = bench["no_regression"]["sig_batch"]
    assert (checks["frames_per_ref"]["verdict"], checks["setup_s"]["verdict"]) == verdicts
    rate = checks["frames_per_ref"]
    assert (rate["parent_median"], rate["bound"], rate["better"]) == (101.5, 0.2, "higher")
    assert rate["change_share"] == rate["change_median"] / 101.5
    assert rate["parent_iqr_share"] == pytest.approx(1.5 / 101.5)
