"""The integer and real-number rules every numeric setting is held to."""

import io
import re

import numpy as np
import pytest

from lightband.baseline import BaselineConfig
from lightband.mlp import MlpConfig, load_model, save_model, split_dataset, train
from lightband.signature import ClassifierState, SignatureTable, check_active_sensors
from lightband.simulate import SimConfig, critical_angle
from lightband.types import GestureLabel

E = GestureLabel.EXTEND


def config_fields(cls, kind, *names):
    """A setting for each named field of a config class."""
    return [
        pytest.param(name, kind, lambda value, name=name: cls(**{name: value}),
                     lambda built, name=name: getattr(built, name), id=f"{cls.__name__}.{name}")
        for name in names
    ]


# (name the errors use, "int" or "real", build(value), read(built): the value
# as stored, or None where nothing stores it) for every numeric setting; 3
# and 0.5 are valid for each.
SETTINGS = [
    *config_fields(SimConfig, "int", "seed"),
    *config_fields(SimConfig, "real", "sample_interval", "gesture_hold", "relax_hold",
                   "transition_time", "noise_sigma", "drift", "start_unix"),
    pytest.param("baseline_levels", "real",
                 lambda value: SimConfig(baseline_levels=(value, 760, 650, 800, 930)),
                 lambda built: built.baseline_levels[0], id="SimConfig.baseline_levels"),
    *config_fields(BaselineConfig, "real", "alpha", "window"),
    *config_fields(ClassifierState, "real", "tolerance"),
    *config_fields(ClassifierState, "int", "transition_horizon"),
    *config_fields(MlpConfig, "int", "input_dim", "output_dim", "epochs", "batch_size", "seed"),
    *config_fields(MlpConfig, "real", "dropout_rate", "l2", "learning_rate", "beta1",
                   "beta2", "adam_eps"),
    pytest.param("hidden", "int", lambda value: MlpConfig(hidden=(4, value)),
                 lambda built: built.hidden[1], id="MlpConfig.hidden"),
    pytest.param("sensor index", "int", lambda value: check_active_sensors((1, value)),
                 lambda active: active[1], id="check_active_sensors"),
    pytest.param("sensor index", "int", lambda value: SignatureTable({(E, value): -1.0}),
                 lambda table: table.active_sensors[0], id="SignatureTable.sensor"),
    pytest.param("delta for (EXTEND, sensor 2)", "real",
                 lambda value: SignatureTable({(E, 2): value}),
                 lambda table: table.deltas[(E, 2)], id="SignatureTable.delta"),
    pytest.param("boundary", "int",
                 lambda value: len(split_dataset(np.zeros((4, 5)), np.arange(4), value)[0][1]),
                 None, id="split_dataset.boundary"),
    pytest.param("refractive index", "real", lambda value: critical_angle(value, 0.25), None,
                 id="critical_angle.n_medium"),
    pytest.param("refractive index", "real", lambda value: critical_angle(1.5, value), None,
                 id="critical_angle.n_cladding"),
]

REFUSED = {
    "int": [("1", "an integer"), (None, "an integer"), (True, "an integer"),
            (np.True_, "an integer"), (2.0, "an integer"), (np.float64(3.0), "an integer"),
            (3 + 0j, "an integer")],
    "real": [("1", "a real number"), (None, "a real number"), (True, "a real number"),
             (np.True_, "a real number"), (3 + 0j, "a real number"),
             (float("nan"), "finite"), (float("inf"), "finite"), (np.float32("-inf"), "finite"),
             (10**400, "finite")],
}


@pytest.mark.parametrize("name, kind, build, read", SETTINGS)
def test_every_numeric_setting_follows_its_rule(name, kind, build, read):
    for value, words in REFUSED[kind]:
        # the real-number rule checks finiteness on the Python number
        shown = value.item() if words == "finite" and isinstance(value, np.generic) else value
        with pytest.raises(ValueError) as refused:
            build(value)
        assert str(refused.value) == f"{name} must be {words}, got {shown!r}"
    # a numpy integer, or a numpy float where a real number goes, is stored
    # as the Python number it equals
    if kind == "int":
        plain, numpy_types = 3, (np.int8, np.uint16, np.int64, np.uint64)
    else:
        plain, numpy_types = 0.5, (np.float16, np.float32, np.float64)
    for numpy_type in numpy_types:
        built = build(numpy_type(plain))
        assert built == build(plain)
        if read is not None:
            assert read(built) == plain and type(read(built)) is type(plain)


@pytest.mark.parametrize("build, message", [
    (lambda: MlpConfig(hidden=5), "hidden must be an iterable, got 5"),
    (lambda: MlpConfig(hidden="12"), "hidden must be an integer, got '1'"),
    (lambda: SimConfig(baseline_levels=None), "baseline_levels must be an iterable, got None"),
    (lambda: SimConfig(baseline_levels=500.0), "baseline_levels must be an iterable, got 500.0"),
    (lambda: check_active_sensors(2), "sensor index must be an iterable, got 2"),
])
def test_a_setting_of_several_numbers_refuses_a_non_iterable(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_a_float32_learning_rate_trains_saves_and_loads():
    rng = np.random.default_rng(0)
    x, labels = rng.uniform(0, 1023, size=(12, 5)), rng.integers(0, 3, size=12)
    cfg = MlpConfig(hidden=(4,), output_dim=3, epochs=2, learning_rate=np.float32(1e-3))
    assert type(cfg.learning_rate) is float
    model, _ = train(x, labels, cfg)
    sink = io.StringIO()
    save_model(model, sink)
    assert load_model(io.StringIO(sink.getvalue())).config == cfg
