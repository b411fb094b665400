import copy
import io
import json
import shlex
import stat
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    NON_BMP,
    E,
    F,
    O,
    members,
    reference_labels,
    reference_train,
    run_python,
    write_non_bmp_collection,
    T as TRANSITION,
)
from lightband import cli, evaluate, mlp, signature
from lightband.baseline import BaselineConfig
from lightband.cli import NN_SPLIT, _config, build_parser, main
from lightband.ingest import COLLECTION_HEADER, read_collection_csv, write_collection_csv
from lightband.signature import (
    ClassifierState,
    SignatureTable,
    classify_trace,
    generate_signatures,
    read_signature_csv,
    write_signature_csv,
)
from lightband.simulate import DEFAULT_PROFILES, SimConfig, synth_trace
from lightband.types import ROW_BLOCK, GestureLabel, LabeledTrace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_physics_prints_angle(capsys):
    code, out, _ = run(capsys, "physics", "1.444", "1.000350")
    assert code == 0
    assert abs(float(out.strip()) - 43.85) <= 0.05


def test_physics_equal_indices_usage_error(capsys):
    code, _, err = run(capsys, "physics", "1.444", "1.444")
    assert code == 2
    assert "total internal reflection" in err


def test_physics_cladding_above_medium(capsys):
    code, _, _ = run(capsys, "physics", "1.0", "1.444")
    assert code == 2


def test_physics_non_numeric(capsys):
    assert run(capsys, "physics", "glass", "air")[0] == 2
    for indices in (("nan", "1.0"), ("inf", "1.0"), ("1.444", "nan")):
        code, out, err = run(capsys, "physics", *indices)
        assert (code, out) == (2, "")
        bad = "inf" if "inf" in indices else "nan"
        assert err == f"error: refractive index must be finite, got {bad}\n"


def test_unknown_subcommand(capsys):
    assert run(capsys, "does-not-exist")[0] == 2


def script_file(tmp_path, gestures="extend\nfist\none\n"):
    path = tmp_path / "script.txt"
    path.write_text(gestures)
    return str(path)


SIM_ARGS = ["--gesture-hold", "0.4", "--relax-hold", "0.3", "--transition-time", "0.1"]


def test_simulate_writes_csv_and_summary(capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "simulate", "--script", script_file(tmp_path),
        "--out", str(out_csv), "--seed", "7", *SIM_ARGS,
    )
    assert code == 0
    assert "frames" in out and "extend=" in out
    trace = read_collection_csv(str(out_csv))
    assert len(trace) == 3 * (15 + 5 + 20 + 5)


@pytest.mark.parametrize("script", ["extend\nfist\none\n", "", "fist\n"],
                         ids=["three-gestures", "empty", "one-gesture"])
def test_simulate_summary_counts_every_label(capsys, tmp_path, script):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run(
        capsys, "simulate", "--script", script_file(tmp_path, script),
        "--out", str(out_csv), *SIM_ARGS,
    )
    assert code == 0
    trace = read_collection_csv(str(out_csv))
    counts = Counter(members(trace.labels))
    summary = " ".join(f"{label.name.lower()}={counts[label]}" for label in GestureLabel)
    assert out == f"wrote {len(trace)} frames ({trace.t_rel[-1]:.2f}s) to {out_csv}: {summary}\n"


def test_simulate_seed_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    script = script_file(tmp_path)
    assert run(capsys, "simulate", "--script", script, "--out", str(a), "--seed", "7", *SIM_ARGS)[0] == 0
    assert run(capsys, "simulate", "--script", script, "--out", str(b), "--seed", "7", *SIM_ARGS)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_missing_profile_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--script", script_file(tmp_path),
        "--profiles", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv"),
    )
    assert code == 2
    assert "error" in err


def test_simulate_bad_script_content(capsys, tmp_path):
    code, _, err = run(
        capsys, "simulate", "--script", script_file(tmp_path, "extend\nrelax\n"),
        "--out", str(tmp_path / "o.csv"),
    )
    assert code == 2


def test_simulate_duration_too_long_to_hold_is_domain_error(capsys, tmp_path):
    # numpy refuses the 355 PiB allocation at once, so the test takes no memory
    out = tmp_path / "o.csv"
    code, _, err = run(
        capsys, "simulate", "--script", script_file(tmp_path), "--out", str(out),
        "--relax-hold", "1e15",
    )
    assert code == 1
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_interval_too_small_to_count_samples_is_domain_error(capsys, tmp_path):
    out = tmp_path / "o.csv"
    code, _, err = run(
        capsys, "simulate", "--script", script_file(tmp_path), "--out", str(out),
        "--interval", "1e-320",
    )
    assert code == 1
    assert err == "error: duration 2.0s yields too many samples at interval 1e-320s\n"
    assert not out.exists()


def simulate_with_profiles(capsys, tmp_path, profile_text, script="extend\n", *extra):
    profiles = tmp_path / "profiles.csv"
    profiles.write_text(profile_text)
    out_csv = tmp_path / "trace.csv"
    code, _, err = run(
        capsys, "simulate", "--script", script_file(tmp_path, script),
        "--profiles", str(profiles), "--out", str(out_csv), *SIM_ARGS, *extra,
    )
    return code, err, out_csv


def test_simulate_with_profile_file(capsys, tmp_path):
    sink = io.StringIO()
    write_signature_csv(DEFAULT_PROFILES, sink)
    code, _, out_csv = simulate_with_profiles(capsys, tmp_path, sink.getvalue())
    assert code == 0
    default_csv = tmp_path / "default.csv"
    assert run(
        capsys, "simulate", "--script", script_file(tmp_path, "extend\n"),
        "--out", str(default_csv), *SIM_ARGS,
    )[0] == 0
    assert out_csv.read_bytes() == default_csv.read_bytes()


def test_simulate_profile_without_sensors_1_and_5_leaves_them_unchanged(capsys, tmp_path):
    text = "gesture,sensor,delta\nextend,2,-150.0\nextend,3,-180.0\nextend,4,-223.0\n"
    code, _, out_csv = simulate_with_profiles(capsys, tmp_path, text, "extend\nextend\n")
    assert code == 0
    zeros_on_1_and_5 = SignatureTable(
        deltas={(E, s): d for s, d in zip(range(1, 6), (0.0, -150.0, -180.0, -223.0, 0.0))},
    )
    cfg = SimConfig(gesture_hold=0.4, relax_hold=0.3, transition_time=0.1)
    expected = io.StringIO(newline="")
    write_collection_csv(synth_trace([E, E], zeros_on_1_and_5, cfg), expected)
    assert out_csv.read_bytes() == expected.getvalue().encode()


@pytest.mark.parametrize(
    "rows",
    [
        "extend,2\n",  # malformed row
        "extend,2,-100.0\nextend,2,-90.0\n",  # duplicate (gesture, sensor)
        "relax,2,-100.0\n",
        "transition,2,-100.0\n",
        "extend,2,-100.0\nfist,2,0.0\n",  # an all-zero gesture, even unscripted
        "extend,2,-100.0\nfist,3,-50.0\n",  # gestures listing different sensors
        "extend,2,nan\n",
    ],
)
def test_simulate_rejected_profile_file_is_usage_error(capsys, tmp_path, rows):
    code, err, out_csv = simulate_with_profiles(capsys, tmp_path, "gesture,sensor,delta\n" + rows)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_csv.exists()


def test_simulate_scripted_gesture_without_profile_is_domain_error(capsys, tmp_path):
    code, err, out_csv = simulate_with_profiles(
        capsys, tmp_path, "gesture,sensor,delta\nextend,2,-100.0\n", "extend\nfist\n",
    )
    assert code == 1
    assert err == "error: no profile for scripted gesture FIST\n"
    assert not out_csv.exists()


def _parsed(*argv):
    return build_parser().parse_args(list(argv))


def test_option_defaults_come_from_the_config_dataclasses():
    # with only the required flags, each config is its class's own default
    simulate = _parsed("simulate", "--script", "s", "--out", "o")
    assert _config(SimConfig, simulate) == SimConfig()
    assert (simulate.script, simulate.profiles, simulate.out) == ("s", None, "o")
    classify = _parsed("classify", "--trace", "t", "--table", "s", "--out", "o")
    assert _config(BaselineConfig, classify) == BaselineConfig()
    assert _config(ClassifierState, classify) == ClassifierState()
    train = _parsed("nn", "train", "--trace", "t", "--model", "m")
    assert _config(mlp.MlpConfig, train) == mlp.MlpConfig()
    assert (train.split, train.metrics) == (NN_SPLIT, None)
    assert set(vars(_parsed("nn", "predict", "--trace", "t", "--model", "m"))) == {
        "command", "mode", "trace", "model", "out", "func",
    }
    assert NN_SPLIT == 880

    # each flag sets the field it is named after, --interval, --baselines,
    # --horizon and --dropout included
    given = _parsed(
        "simulate", "--script", "s", "--out", "o", "--seed", "3", "--interval", "0.05",
        "--noise-sigma", "1.5", "--drift", "0.1", "--gesture-hold", "4", "--relax-hold", "3",
        "--transition-time", "0.5", "--baselines", "300,700,600,750,900",
    )
    assert _config(SimConfig, given) == SimConfig(
        seed=3, sample_interval=0.05, noise_sigma=1.5, drift=0.1, gesture_hold=4.0,
        relax_hold=3.0, transition_time=0.5, baseline_levels=(300.0, 700.0, 600.0, 750.0, 900.0),
    )
    given = _parsed(
        "classify", "--trace", "t", "--table", "s", "--out", "o", "--alpha", "0.5",
        "--window", "12", "--tolerance", "0.2", "--horizon", "7",
    )
    assert _config(BaselineConfig, given) == BaselineConfig(alpha=0.5, window=12.0)
    assert _config(ClassifierState, given) == ClassifierState(tolerance=0.2, transition_horizon=7)
    given = _parsed(
        "nn", "train", "--trace", "t", "--model", "m", "--epochs", "7", "--batch-size", "9",
        "--dropout", "0.1", "--l2", "0.02", "--seed", "4", "--normalize",
    )
    assert _config(mlp.MlpConfig, given) == mlp.MlpConfig(
        epochs=7, batch_size=9, dropout_rate=0.1, l2=0.02, seed=4, normalize=True,
    )


def training_trace(tmp_path, seed=21):
    cfg = SimConfig(
        gesture_hold=1.4, relax_hold=2.0, transition_time=2.4,
        noise_sigma=1.0, drift=0.02, seed=seed,
    )
    trace = synth_trace([E, F, O], DEFAULT_PROFILES, cfg)
    path = tmp_path / f"train{seed}.csv"
    write_collection_csv(trace, str(path))
    return path


def test_train_signatures_and_classify_round_trip(capsys, tmp_path):
    trace_path = training_trace(tmp_path)
    table_path = tmp_path / "table.csv"
    code, out, _ = run(
        capsys, "train-signatures", str(trace_path), "--out", str(table_path)
    )
    assert code == 0
    assert "extend" in out
    table = read_signature_csv(str(table_path))
    assert table.deltas[(E, 4)] == pytest.approx(-223, abs=3)

    labels_path = tmp_path / "labels.csv"
    eval_path = training_trace(tmp_path, seed=22)
    code, out, _ = run(
        capsys, "classify", "--trace", str(eval_path), "--table", str(table_path),
        "--out", str(labels_path),
    )
    assert code == 0
    assert "accuracy:" in out
    lines = labels_path.read_text().splitlines()
    assert lines[0] == "t_rel,label"
    assert len(lines) == len(read_collection_csv(str(eval_path))) + 1


def test_train_signatures_without_gestures(capsys, tmp_path):
    trace = synth_trace([], DEFAULT_PROFILES, SimConfig(seed=1))
    path = tmp_path / "relax.csv"
    write_collection_csv(trace, str(path))
    code, _, err = run(capsys, "train-signatures", str(path), "--out", str(tmp_path / "t.csv"))
    assert code == 1
    assert "no relax/gesture pairs" in err


def test_classify_malformed_table(capsys, tmp_path):
    trace_path = training_trace(tmp_path)
    bad_table = tmp_path / "bad.csv"
    bad_table.write_text("not,a,table\n")
    code, _, err = run(
        capsys, "classify", "--trace", str(trace_path), "--table", str(bad_table),
        "--out", str(tmp_path / "l.csv"),
    )
    assert code == 1


def test_classify_table_with_duplicate_entry_is_domain_error(capsys, tmp_path):
    trace_path = training_trace(tmp_path)
    table = tmp_path / "dup.csv"
    table.write_text("gesture,sensor,delta\nextend,2,-100.0\nextend,2,-5.0\n")
    code, out, err = run(
        capsys, "classify", "--trace", str(trace_path), "--table", str(table),
        "--out", str(tmp_path / "l.csv"),
    )
    assert code == 1
    assert err == "error: line 3: duplicate entry for (EXTEND, sensor 2)\n"
    assert out == "" and not (tmp_path / "l.csv").exists()


# a signature-file row no table can hold, and the error it is refused with
BAD_TABLE_ROWS = [
    ("extend,7,-1.0", "sensor index 7 outside 1..5"),
    ("relax,2,-1.0", "RELAX cannot carry a signature"),
    ("extend,2,nan", "delta for (EXTEND, sensor 2) must be finite, got nan"),
]


@pytest.mark.parametrize("row, message", BAD_TABLE_ROWS)
def test_classify_table_entry_error_names_its_line(capsys, tmp_path, row, message):
    trace_path = training_trace(tmp_path)
    table = tmp_path / "bad.csv"
    table.write_text(f"gesture,sensor,delta\n{row}\nextend,3,-1.0\n")
    code, out, err = run(
        capsys, "classify", "--trace", str(trace_path), "--table", str(table),
        "--out", str(tmp_path / "l.csv"),
    )
    assert (code, out, err) == (1, "", f"error: line 2: {message}\n")
    assert not (tmp_path / "l.csv").exists()


@pytest.mark.parametrize("row, message", BAD_TABLE_ROWS)
def test_simulate_profile_entry_error_names_its_line(capsys, tmp_path, row, message):
    code, err, out_csv = simulate_with_profiles(
        capsys, tmp_path, f"gesture,sensor,delta\n{row}\nextend,3,-1.0\n"
    )
    assert (code, err) == (2, f"error: line 2: {message}\n")
    assert not out_csv.exists()


# a signature file without its header, and the error it is refused with
BAD_TABLE_HEADERS = [
    ("gesture,sensor\nextend,2,-1.0\n",
     "line 1: missing or malformed signature header: 'gesture,sensor'"),
    ("", "missing or malformed signature header: empty input"),
]


@pytest.mark.parametrize("text, message", BAD_TABLE_HEADERS, ids=["two-fields", "empty"])
def test_classify_table_header_error_names_its_line(capsys, tmp_path, text, message):
    trace_path = training_trace(tmp_path)
    table = tmp_path / "bad.csv"
    table.write_text(text)
    code, out, err = run(
        capsys, "classify", "--trace", str(trace_path), "--table", str(table),
        "--out", str(tmp_path / "l.csv"),
    )
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not (tmp_path / "l.csv").exists()


@pytest.mark.parametrize("text, message", BAD_TABLE_HEADERS, ids=["two-fields", "empty"])
def test_simulate_profile_header_error_names_its_line(capsys, tmp_path, text, message):
    code, err, out_csv = simulate_with_profiles(capsys, tmp_path, text)
    assert (code, err) == (2, f"error: {message}\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("option, code", [("--profiles", 2), ("--table", 1)])
def test_bad_signature_file_exits_by_the_option_that_names_it(capsys, tmp_path, option, code):
    # the same contents: a usage error as simulate's profiles, a domain
    # error as classify's table
    bad = tmp_path / "bad.csv"
    bad.write_text(BAD_TABLE_HEADERS[0][0])
    if option == "--profiles":
        argv = ["simulate", "--script", script_file(tmp_path), "--out", str(tmp_path / "o.csv")]
    else:
        argv = ["classify", "--trace", str(training_trace(tmp_path)),
                "--out", str(tmp_path / "o.csv")]
    got, out, err = run(capsys, *argv, option, str(bad))
    assert (got, out) == (code, "")
    assert err == f"error: {BAD_TABLE_HEADERS[0][1]}\n"  # "error: line 1: ..."
    assert not (tmp_path / "o.csv").exists()


def test_train_signatures_writes_the_same_table_whatever_the_sensor_order(capsys, tmp_path):
    trace_path = training_trace(tmp_path)
    tables = []
    for active in ("4,2,3", "2,3,4"):
        out = tmp_path / f"{active.replace(',', '')}.csv"
        argv = ["train-signatures", str(trace_path), "--out", str(out), "--active", active]
        assert run(capsys, *argv)[0] == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_classify_trace_with_a_non_bmp_intensity_is_domain_error(tmp_path):
    trace_path, table = tmp_path / "non_bmp.csv", tmp_path / "sig.csv"
    write_non_bmp_collection(trace_path)
    write_signature_csv(DEFAULT_PROFILES, table)
    child = run_python(
        "-m", "lightband.cli", "classify", "--trace", str(trace_path), "--table", str(table),
        "--out", str(tmp_path / "l.csv"),
    )
    assert child.returncode == 1, (child.returncode, child.stderr)  # not a signal
    assert child.stderr == (
        f"error: line 3: malformed row: invalid literal for int() with base 10: {NON_BMP!r}\n"
    )
    assert child.stdout == "" and not (tmp_path / "l.csv").exists()


def test_nn_train_and_predict(capsys, tmp_path):
    trace_path = training_trace(tmp_path, seed=33)
    model_path, metrics_path = tmp_path / "model.txt", tmp_path / "metrics.csv"
    code, out, _ = run(
        capsys, "nn", "train", "--trace", str(trace_path), "--model", str(model_path),
        "--metrics", str(metrics_path), "--split", "500", "--epochs", "3", "--seed", "5",
    )
    assert code == 0
    assert f"trained 3 epochs on 500 rows; model -> {model_path}" in out
    assert "accuracy:" in out  # held-out confusion report
    assert metrics_path.read_text().startswith("epoch,")

    out_path = tmp_path / "pred.csv"
    code, out, _ = run(
        capsys, "nn", "predict", "--trace", str(trace_path),
        "--model", str(model_path), "--out", str(out_path),
    )
    assert code == 0
    n = len(read_collection_csv(str(trace_path)))
    assert len([int(v) for v in out_path.read_text().split()]) == n
    assert f"wrote {n} predictions to {out_path}" in out
    assert "accuracy:" in out  # trace labels serve as ground truth


def test_nn_train_from_trace(capsys, tmp_path):
    trace_path = training_trace(tmp_path, seed=33)
    model_path = tmp_path / "model.txt"
    code, out, _ = run(
        capsys, "nn", "train", "--trace", str(trace_path),
        "--model", str(model_path), "--split", "500", "--epochs", "3", "--seed", "5",
    )
    assert code == 0
    assert model_path.exists()

    code, out, _ = run(
        capsys, "nn", "predict", "--trace", str(trace_path),
        "--model", str(model_path), "--out", str(tmp_path / "pred.csv"),
    )
    assert code == 0
    assert "accuracy:" in out  # trace labels serve as ground truth


@pytest.mark.parametrize("batch, normalize", [(20, False), (7, True)])
def test_nn_train_files_equal_the_per_tensor_reference(capsys, tmp_path, batch, normalize):
    # a criterion-4-style trace (short holds and ramps), one gesture of each
    cfg = SimConfig(gesture_hold=1.2, relax_hold=0.8, transition_time=0.2,
                    noise_sigma=2.0, drift=0.05, seed=8)
    trace_path = tmp_path / "trace.csv"
    write_collection_csv(synth_trace([E, F, O], DEFAULT_PROFILES, cfg), str(trace_path))
    model_path, metrics_path = tmp_path / "model.txt", tmp_path / "metrics.csv"
    code, _, _ = run(
        capsys, "nn", "train", "--trace", str(trace_path), "--model", str(model_path),
        "--metrics", str(metrics_path), "--split", "240", "--epochs", "3",
        "--batch-size", str(batch), "--dropout", "0.3", "--l2", "0.01", "--seed", "5",
        *(["--normalize"] if normalize else []),
    )
    assert code == 0

    x, labels = mlp.trace_to_dataset(read_collection_csv(str(trace_path)))
    ref_cfg = mlp.MlpConfig(output_dim=max(labels) + 1, dropout_rate=0.3, l2=0.01, epochs=3,
                            batch_size=batch, seed=5, normalize=normalize)
    model, report = reference_train(x[:240], labels[:240], ref_cfg,
                                    validation=(x[240:], labels[240:]))
    model_text, metrics_text = io.StringIO(), io.StringIO()
    mlp.save_model(model, model_text)
    mlp.write_metrics_csv(report, metrics_text)
    assert model_path.read_text() == model_text.getvalue()
    assert metrics_path.read_text() == metrics_text.getvalue()
    assert len(metrics_text.getvalue().splitlines()) == 4  # the header and 3 epochs


REQUIRED_TRACE = "the following arguments are required: --trace"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["train"], REQUIRED_TRACE),
        (["predict", "--out", "pred.csv"], REQUIRED_TRACE),
        (["train", "--trace", "train21.csv", "--x", "X.csv"], "unrecognized arguments: --x X.csv"),
        (["predict", "--trace", "train21.csv", "--out", "pred.csv", "--y", "Y.csv"],
         "unrecognized arguments: --y Y.csv"),
    ],
    ids=["train-no-data", "predict-no-data", "train-both", "predict-both"],
)
def test_nn_data_flag_misuse_is_usage_error(capsys, tmp_path, monkeypatch, argv, message):
    # a collection CSV is the only input: a feature or label file is refused
    training_trace(tmp_path)
    (tmp_path / "X.csv").write_text("1,2,3,4,5\n")
    (tmp_path / "Y.csv").write_text("0\n")
    monkeypatch.chdir(tmp_path)
    mode = argv[0]
    code, out, err = run(capsys, "nn", *argv, "--model", "m.txt")
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: lightband nn {mode} [-h] ")
    assert err.endswith(f"\nlightband nn {mode}: error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["X.csv", "Y.csv", "train21.csv"]


@pytest.mark.parametrize(
    "mode, flags",
    [
        ("train", ["--out", "pred.csv"]),
        ("predict", ["--metrics", "m.csv", "--epochs", "7", "--split", "5"]),
        ("predict", ["--batch-size", "20", "--dropout", "0.3", "--l2", "0.01", "--seed", "1"]),
        ("predict", ["--normalize"]),
    ],
    ids=["train-out", "predict-metrics-epochs-split", "predict-hyperparameters",
         "predict-normalize"],
)
def test_nn_other_mode_options_are_usage_errors(capsys, tmp_path, monkeypatch, mode, flags):
    data = ["--trace", str(training_trace(tmp_path))]
    monkeypatch.chdir(tmp_path)
    run(capsys, "nn", "train", *data, "--model", "trained.txt", "--split", "80", "--epochs", "1")
    model = "trained.txt" if mode == "predict" else "new.txt"
    code, out, err = run(capsys, "nn", mode, *data, "--model", model, *flags)
    assert (code, out) == (2, "")
    # reported by the mode's own parser, under its usage line
    assert err.startswith(f"usage: lightband nn {mode} [-h] ")
    refused = " ".join(flags)
    assert err.endswith(f"\nlightband nn {mode}: error: unrecognized arguments: {refused}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train21.csv", "trained.txt"]


def test_nn_predict_on_a_long_trace_equals_the_whole_array_reference(capsys, tmp_path):
    # 6,290 rows: two row blocks, the second holding a 146-row tail
    trace = synth_trace([E, F, O] * 5 + [E, F], DEFAULT_PROFILES, SimConfig(seed=6))
    assert len(trace) > 2 * ROW_BLOCK and len(trace) % ROW_BLOCK < 255
    trace_path, model_path = tmp_path / "long.csv", tmp_path / "model.txt"
    write_collection_csv(trace, str(trace_path))
    code, _, _ = run(
        capsys, "nn", "train", "--trace", str(trace_path), "--model", str(model_path),
        "--split", "4000", "--epochs", "5",
    )
    assert code == 0
    out_path = tmp_path / "pred.csv"
    code, _, _ = run(
        capsys, "nn", "predict", "--trace", str(trace_path), "--model", str(model_path),
        "--out", str(out_path),
    )
    assert code == 0
    want = reference_labels(mlp.load_model(str(model_path)), mlp.trace_to_dataset(trace)[0])
    assert len(set(want)) > 1
    assert out_path.read_text() == "".join(f"{label}\n" for label in want)


def test_nn_one_row_predictions_print_the_batch_reference(capsys, tmp_path):
    # a one-row trace, and a one-row held-out split, take predict_labels'
    # one-row path, which returns [int] rather than the batch path's array
    trace_path = training_trace(tmp_path)
    trace = read_collection_csv(str(trace_path))
    x, labels = mlp.trace_to_dataset(trace)
    model_path = tmp_path / "model.txt"
    code, out, err = run(
        capsys, "nn", "train", "--trace", str(trace_path), "--model", str(model_path),
        "--split", str(len(trace) - 1), "--epochs", "2",
    )
    assert (code, err) == (0, "")
    model = mlp.load_model(str(model_path))
    want = reference_labels(model, x[-1:])
    report = evaluate.render_report(evaluate.confusion(labels[-1:], np.array(want)))
    assert out.endswith("\n" + report)

    lines = trace_path.read_text().splitlines(keepends=True)
    one_row, out_path = tmp_path / "one.csv", tmp_path / "pred.csv"
    one_row.write_text(lines[0] + lines[-1])
    code, out, err = run(
        capsys, "nn", "predict", "--trace", str(one_row), "--model", str(model_path),
        "--out", str(out_path),
    )
    assert (code, err) == (0, "")
    assert out_path.read_text() == f"{want[0]}\n"
    assert out == f"wrote 1 predictions to {out_path}\n" + report


def _unknown_key(cfg):
    cfg["momentum"] = 0.9
    return cfg


def _missing_hidden(cfg):
    del cfg["hidden"]
    return cfg


@pytest.mark.parametrize(
    "corrupt",
    [
        _unknown_key,
        _missing_hidden,
        lambda cfg: {**cfg, "hidden": 5},
        lambda cfg: list(cfg.values()),
        lambda cfg: {**cfg, "epochs": "x"},
        lambda cfg: {**cfg, "hidden": [2.5]},
        lambda cfg: {**cfg, "output_dim": 2.0},
        lambda cfg: {**cfg, "batch_size": True},
        lambda cfg: {**cfg, "normalize": 1},
    ],
    ids=[
        "unknown-key", "missing-hidden", "int-hidden", "json-list", "str-epochs",
        "float-hidden", "float-output-dim", "bool-batch-size", "int-normalize",
    ],
)
def test_nn_predict_malformed_model_config(capsys, tmp_path, corrupt):
    trace_path = training_trace(tmp_path)
    model = mlp.init_model(mlp.MlpConfig(hidden=(3,), output_dim=2), np.random.default_rng(0))
    model_path = tmp_path / "model.txt"
    mlp.save_model(model, str(model_path))
    lines = model_path.read_text().splitlines()
    cfg = corrupt(json.loads(lines[1]))
    lines[1] = json.dumps(cfg)
    if isinstance(cfg, dict) and isinstance(cfg.get("hidden"), list):
        # layer headers that match the config, so loading reaches its values
        dims = [cfg["input_dim"], *cfg["hidden"], cfg["output_dim"]]
        headers = iter(f"layer {out} {fan_in}" for fan_in, out in zip(dims, dims[1:]))
        lines = [next(headers) if line.startswith("layer ") else line for line in lines]
    model_path.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        capsys, "nn", "predict", "--trace", str(trace_path), "--model", str(model_path)
    )
    assert code == 1
    assert err.startswith("error:") and "config" in err


def small_classify_inputs(tmp_path):
    trace = synth_trace([E], DEFAULT_PROFILES, SimConfig(gesture_hold=0.4, relax_hold=0.3))
    trace_path, table_path = tmp_path / "trace.csv", tmp_path / "table.csv"
    write_collection_csv(trace, str(trace_path))
    write_signature_csv(SignatureTable(deltas={(E, s): -100.0 for s in (2, 3, 4)}), str(table_path))
    out_path = tmp_path / "l.csv"
    return ["--trace", str(trace_path), "--table", str(table_path), "--out", str(out_path)]


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("simulate", "--gesture-hold", "inf"),
        ("simulate", "--noise-sigma", "nan"),
        ("simulate", "--drift", "-inf"),
        ("classify", "--tolerance", "nan"),
        ("classify", "--tolerance", "inf"),
        ("classify", "--window", "inf"),
        ("classify", "--window", "nan"),
    ],
)
def test_non_finite_options_are_usage_errors(capsys, tmp_path, command, option, value):
    if command == "simulate":
        inputs = ["--script", script_file(tmp_path), "--out", str(tmp_path / "o.csv"), *SIM_ARGS]
    else:
        inputs = small_classify_inputs(tmp_path)
    code, _, err = run(capsys, command, *inputs, f"{option}={value}")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "option, value",
    [
        ("--l2", "nan"),
        ("--l2", "inf"),
        ("--dropout", "nan"),
        ("--dropout", "1.5"),
        ("--epochs", "-1"),
        ("--batch-size", "0"),
    ],
)
def test_nn_invalid_options_are_usage_errors(capsys, tmp_path, option, value):
    trace_path = training_trace(tmp_path)
    model_path = tmp_path / "model.txt"
    code, _, err = run(
        capsys, "nn", "train", "--trace", str(trace_path),
        "--model", str(model_path), "--split", "60", "--epochs", "1", f"{option}={value}",
    )
    assert code == 2
    assert err.startswith("error:")
    assert not model_path.exists()


def test_nn_split_negative_is_usage_error_past_end_is_domain_error(capsys, tmp_path):
    trace_path = training_trace(tmp_path)
    rows = len(read_collection_csv(str(trace_path)))
    model_path = tmp_path / "model.txt"
    args = ["nn", "train", "--trace", str(trace_path), "--model", str(model_path),
            "--epochs", "1"]
    code, _, err = run(capsys, *args, "--split=-1")
    assert code == 2
    assert err.startswith("error:") and "--split" in err
    code, _, err = run(capsys, *args, f"--split={rows + 1}")
    assert code == 1
    assert err == f"error: boundary {rows + 1} outside [0, {rows}]\n"
    assert not model_path.exists()


def test_nn_split_zero_is_refused_by_train(capsys, tmp_path):
    # mlp.train's refusal is the one refusal, a trace with no rows included
    empty = tmp_path / "empty.csv"
    empty.write_text(COLLECTION_HEADER + "\n")
    model_path = tmp_path / "model.txt"
    for trace_path in (training_trace(tmp_path), empty):
        code, out, err = run(
            capsys, "nn", "train", "--trace", str(trace_path),
            "--model", str(model_path), "--split", "0", "--epochs", "1",
        )
        assert (code, out, err) == (1, "", "error: training set is empty\n")
        assert not model_path.exists()


def test_nn_train_diverging_to_nan_writes_no_model(capsys, tmp_path):
    cfg = SimConfig(seed=3, gesture_hold=1.2, relax_hold=0.8)
    trace_path = tmp_path / "t.csv"
    write_collection_csv(synth_trace([E, F, O], DEFAULT_PROFILES, cfg), str(trace_path))
    model_path, metrics_path = tmp_path / "m.txt", tmp_path / "met.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would be a second stderr line
        code, out, err = run(
            capsys, "nn", "train", "--trace", str(trace_path), "--model", str(model_path),
            "--split", "100", "--epochs", "3", "--l2", "1e308", "--metrics", str(metrics_path),
        )
    assert (code, out) == (1, "")
    assert err == "error: training diverged at epoch 1: non-finite loss\n"
    assert not model_path.exists() and not metrics_path.exists()


def test_nn_split_checked_before_data_is_read(capsys, tmp_path):
    missing = tmp_path / "missing.csv"
    code, _, err = run(
        capsys, "nn", "train", "--trace", str(missing),
        "--model", str(tmp_path / "model.txt"), "--split=-5",
    )
    assert code == 2
    assert "--split" in err


@pytest.mark.parametrize("command", [["simulate", "--script"], ["nn", "train", "--trace"]])
def test_negative_seed_checked_before_inputs_are_read(capsys, tmp_path, command):
    bad_input = tmp_path / "bad.csv"
    bad_input.write_text("not a script or a collection file\n")
    out_path = tmp_path / "out.txt"
    code, out, err = run(
        capsys, *command, str(bad_input), "--out" if command[0] == "simulate" else "--model",
        str(out_path), "--seed=-1",
    )
    assert (code, out) == (2, "")
    assert err == "error: seed must be non-negative, got -1\n"
    assert not out_path.exists()


@pytest.mark.parametrize("levels, code, message", [
    ("300,700,600,750,900", 0, ""),
    ("300,700,600", 2, "argument --baselines: expected 5 comma-separated numbers\n"),
    ("300,700,x,750,900", 2, "argument --baselines: expected 5 comma-separated numbers\n"),
    ("300,700,600,750,nan", 2, "error: baseline_levels must be finite, got nan\n"),
])
def test_simulate_baselines_option(capsys, tmp_path, levels, code, message):
    script, out_csv = tmp_path / "script.txt", tmp_path / "out.csv"
    script.write_text("")
    got, _, err = run(
        capsys, "simulate", "--script", str(script), "--out", str(out_csv),
        f"--baselines={levels}", "--noise-sigma=0", "--drift=0",
    )
    assert got == code
    assert err.endswith(message)
    if code:
        assert not out_csv.exists()
    else:  # without noise or drift, an empty script holds the levels
        assert read_collection_csv(str(out_csv)).channels[0].tolist() == [300, 700, 600, 750, 900]


@pytest.mark.parametrize("option, value", [
    ("--noise-sigma", "1e308"),
    ("--drift", "1e307"),
    ("--drift", "1e300"),  # exited 0, every reading clipped to 0 or 1023
    ("--noise-sigma", "1023.5"),
])
def test_simulate_saturating_noise_or_drift_is_one_usage_error(tmp_path, option, value):
    # a child process, so anything written to stderr is seen as a user sees it
    out_csv = tmp_path / "out.csv"
    child = run_python(
        "-m", "lightband.cli", "simulate", "--script", script_file(tmp_path),
        "--out", str(out_csv), f"{option}={value}",
    )
    name = option[2:].replace("-", "_")
    assert child.returncode == 2
    assert child.stderr == f"error: {name} must be at most the full scale 1023, got {float(value)}\n"
    assert child.stdout == "" and not out_csv.exists()


@pytest.mark.parametrize("active", ["0,9", "6", "0", "2,x", "-1", "2,2,3"])
def test_train_signatures_bad_active_sensors_are_usage_errors(capsys, tmp_path, active):
    trace_path = training_trace(tmp_path)
    code, _, err = run(
        capsys, "train-signatures", str(trace_path), "--out", str(tmp_path / "t.csv"),
        f"--active={active}",
    )
    assert code == 2
    assert "--active" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "option, value",
    [("--tolerance", "nan"), ("--horizon", "0"), ("--alpha", "2"), ("--window", "-1"),
     ("--horizon", str(sys.maxsize + 1))],
)
def test_classify_options_checked_before_inputs_are_read(capsys, tmp_path, option, value):
    bad_trace = tmp_path / "bad.csv"
    bad_trace.write_text("not a collection file\n")
    bad_table = tmp_path / "table.csv"
    bad_table.write_text("not,a,table\n")
    code, _, err = run(
        capsys, "classify", "--trace", str(bad_trace), "--table", str(bad_table),
        "--out", str(tmp_path / "l.csv"), f"{option}={value}",
    )
    assert code == 2
    assert err.startswith("error:")


def test_classify_label_file_matches_f_string_format(capsys, tmp_path):
    trace = synth_trace([E, F, O] * 2, DEFAULT_PROFILES, SimConfig(seed=5))
    assert len(trace) > ROW_BLOCK
    trace_path, table_path = tmp_path / "trace.csv", tmp_path / "table.csv"
    write_collection_csv(trace, str(trace_path))
    table = generate_signatures([trace])
    write_signature_csv(table, str(table_path))
    labels_path = tmp_path / "labels.csv"
    code, _, _ = run(
        capsys, "classify", "--trace", str(trace_path), "--table", str(table_path),
        "--out", str(labels_path),
    )
    assert code == 0
    predicted = members(classify_trace(trace, table))
    assert TRANSITION in predicted and len(set(predicted)) == 5
    names = {label: label.name.lower() for label in GestureLabel}
    expected = "t_rel,label\n" + "".join(
        f"{t},{names[label]}\n" for t, label in zip(trace.t_rel.tolist(), predicted)
    )
    assert labels_path.read_bytes() == expected.encode()


# awkward t_rel columns: (first time, spacing); repr() gives "-0.0", exponent
# forms such as "3.0000000000000004e-05", and "1.0000000000000004e+16"
_AWKWARD_TIMES = {"negative_zero": (-0.0, 0.02), "exponent": (0.0, 1e-05), "offset": (1e16, 4.0)}


@pytest.mark.parametrize("kind", sorted(_AWKWARD_TIMES))
@pytest.mark.parametrize("n", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
def test_classify_label_file_matches_f_string_reference_on_awkward_times(
    capsys, tmp_path, kind, n
):
    base = synth_trace([E, F, O] * 2, DEFAULT_PROFILES, SimConfig(seed=5))
    first, interval = _AWKWARD_TIMES[kind]
    t_rel = first + np.arange(n) * interval
    t_rel[:1] = first  # keeps the sign of -0.0
    trace = LabeledTrace(
        t_rel=t_rel, t_unix=base.t_unix[:n], channels=base.channels[:n], labels=base.labels[:n]
    )
    trace_path, table_path = tmp_path / "trace.csv", tmp_path / "table.csv"
    labels_path = tmp_path / "labels.csv"
    write_collection_csv(trace, str(trace_path))
    table = generate_signatures([base])
    write_signature_csv(table, str(table_path))
    code, _, err = run(
        capsys, "classify", "--trace", str(trace_path), "--table", str(table_path),
        "--out", str(labels_path),
    )
    assert (code, err) == (0, "")
    predicted = members(classify_trace(read_collection_csv(str(trace_path)), table))
    expected = "t_rel,label\n" + "".join(
        f"{t!r},{label.name.lower()}\n" for t, label in zip(t_rel.tolist(), predicted)
    )
    assert labels_path.read_bytes() == expected.encode()
    if n:
        assert expected.splitlines()[1].split(",")[0] == repr(first)


@pytest.mark.parametrize("winner", [4, 5, 6])
def test_nn_predict_skips_confusion_for_labels_outside_gesture_set(capsys, tmp_path, winner):
    trace_path = training_trace(tmp_path)
    rows = len(read_collection_csv(str(trace_path)))
    # winner + 1 outputs, and a last layer whose bias alone makes `winner` win every row
    cfg = mlp.MlpConfig(hidden=(3,), output_dim=winner + 1)
    model = mlp.init_model(cfg, np.random.default_rng(0))
    model.weights[-1][:] = 0.0
    model.biases[-1][:] = 0.0
    model.biases[-1][winner] = 1.0
    model_path, out_path = tmp_path / "model.txt", tmp_path / "pred.csv"
    mlp.save_model(model, str(model_path))
    code, out, err = run(
        capsys, "nn", "predict", "--trace", str(trace_path), "--model", str(model_path),
        "--out", str(out_path),
    )
    assert (code, err) == (0, "")
    assert out_path.read_text() == f"{winner}\n" * rows
    wrote = f"wrote {rows} predictions to {out_path}\n"
    if winner < 5:  # a class index: the report is printed
        assert out.startswith(wrote) and "accuracy:" in out
    else:
        assert out == wrote + "labels outside the gesture set; skipping confusion report\n"


def readme_experiments(tmp_path, monkeypatch):
    """The argv of each `lightband` line of the README's Experiments block,
    with the working directory moved to tmp_path and the scripts written."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## Experiments\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sig.txt").write_text("extend\nfist\none\n" * 2)
    (tmp_path / "mlp.txt").write_text("extend\nfist\none\n" * 4)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("lightband ")]


def test_readme_cli_block_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("lightband ")]
    assert [argv[0] for argv in commands] == [
        "physics", "simulate", "train-signatures", "classify", "nn", "nn",
    ]
    for argv in commands:
        build_parser().parse_args(argv)


# --- main parses with one parser per process ---


def test_build_parser_returns_a_new_parser_and_main_reuses_one():
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()


def test_a_command_after_a_usage_error_runs_as_in_a_new_process(capsys, tmp_path):
    command = ["simulate", "--script", script_file(tmp_path)]
    settings = ["--seed", "3", *SIM_ARGS]
    child = run_python("-m", "lightband.cli", *command, "--out", str(tmp_path / "new.csv"),
                       *settings)
    assert child.returncode == 0, child.stderr
    fresh = (tmp_path / "new.csv").read_bytes()
    reused = tmp_path / "reused.csv"
    # a value argparse refuses, a value the config refuses, an option
    # without its value and an unknown option, each met by simulate's parser
    for bad in (["--seed", "x"], ["--seed", "-1"], ["--drift"], ["--jump", "1"]):
        code, _, err = run(capsys, *command, "--out", str(tmp_path / "bad.csv"), *bad)
        assert code == 2 and "error: " in err, bad
        assert run(capsys, *command, "--out", str(reused), *settings) == (
            0, child.stdout.replace("new.csv", "reused.csv"), ""
        )
        assert reused.read_bytes() == fresh


def test_help_prints_the_same_bytes_on_a_later_call():
    child = run_python("-c", (
        "import contextlib, io, json\n"
        "from lightband.cli import build_parser, main\n"
        "outs = []\n"
        "for argv in (['--help'], ['classify', '--help']) * 2:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    outs.append([code, out.getvalue()])\n"
        "outs.append([0, build_parser().format_help()])\n"
        "print(json.dumps(outs))\n"
    ))
    assert child.returncode == 0, child.stderr
    root, classify, root_again, classify_again, new_root = json.loads(child.stdout)
    assert root == root_again == new_root
    assert classify == classify_again
    assert classify[1].startswith("usage: lightband classify [-h] ")


def test_a_flag_from_one_call_is_absent_from_the_next(capsys, tmp_path, monkeypatch):
    trace_path = training_trace(tmp_path)
    table_path = tmp_path / "table.csv"
    assert run(capsys, "train-signatures", str(trace_path), "--out", str(table_path))[0] == 0
    configs = []
    real_classify_trace = signature.classify_trace

    def recording_classify_trace(trace, table, cfg, state):
        configs.append((cfg, copy.deepcopy(state)))  # before the run fills its history
        return real_classify_trace(trace, table, cfg, state)

    monkeypatch.setattr(signature, "classify_trace", recording_classify_trace)
    argv = ["classify", "--trace", str(trace_path), "--table", str(table_path),
            "--out", str(tmp_path / "labels.csv")]
    assert run(capsys, *argv, "--alpha", "0.5", "--horizon", "3")[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert configs == [
        (BaselineConfig(alpha=0.5), ClassifierState(transition_horizon=3)),
        (BaselineConfig(), ClassifierState()),
    ]


SIGNATURE_OUTPUTS = ("train.csv", "eval.csv", "signatures.csv", "labels.csv")


def test_classify_out_to_a_directory_is_usage_error(capsys, tmp_path):
    trace_path = training_trace(tmp_path)
    table_path = tmp_path / "table.csv"
    assert run(capsys, "train-signatures", str(trace_path), "--out", str(table_path))[0] == 0
    code, _, err = run(
        capsys, "classify", "--trace", str(trace_path), "--table", str(table_path),
        "--out", str(tmp_path),
    )
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_rerunning_the_signature_experiment_rewrites_the_same_bytes(
    capsys, tmp_path, monkeypatch
):
    commands = readme_experiments(tmp_path, monkeypatch)[:4]
    runs = []
    for _ in range(2):
        for argv in commands:
            assert run(capsys, *argv)[0] == 0, argv
        runs.append({name: (tmp_path / name).read_bytes() for name in SIGNATURE_OUTPUTS})
        (tmp_path / "labels.csv").chmod(0o600)
    assert runs[0] == runs[1]
    assert stat.S_IMODE((tmp_path / "labels.csv").stat().st_mode) == 0o600


def test_readme_experiments_meet_the_acceptance_thresholds(capsys, tmp_path, monkeypatch):
    """Runs each `lightband` line of the README's Experiments block."""
    commands = readme_experiments(tmp_path, monkeypatch)
    assert [argv[0] for argv in commands] == [
        "simulate", "simulate", "train-signatures", "classify", "simulate", "nn",
    ]
    accuracy = {}
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        for line in out.splitlines():
            if line.startswith("accuracy: "):
                accuracy[argv[0]] = float(line.removeprefix("accuracy: ").removesuffix("%"))
    assert accuracy["classify"] >= 99.0
    assert accuracy["nn"] >= 95.0
    for name in SIGNATURE_OUTPUTS + ("dataset.csv", "model.txt", "metrics.csv"):
        assert (tmp_path / name).stat().st_size > 0, name
