"""Every frozen record behaves as the ``@dataclass(frozen=True)`` it replaced.

Each record class is compared with a reference dataclass that the test builds
from the same fields, instance by instance: repr, equality and hashing, the
frozen errors, the ``dataclasses`` API, pickling and the constructor's
signature and argument errors.
"""

import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from sqzlab import budget, cli, decoherence, detection, gaussian, opo

WINDOWS = detection.MeasurementWindowing(1e-4, "rectangular", 2)


def _runner(params, seed):
    return cli.ExperimentOutcome({}, [], [])


# class -> (args, kwargs) of one valid instance.
CASES = {
    cli.Param: (("float", 1.0, "help"), {}),
    cli.ExperimentOutcome: (({"gain": 2.0}, ["x"], [(1.0,)]), {"result": {"x": 1.0}}),
    cli.Experiment: (("summary", False, {"x": cli.Param("float", 1.0)}, _runner), {}),
    gaussian.GaussianState: (([0.5, -1.0], [[2.0, 0.3], [0.3, 0.8]]), {}),
    gaussian.SqueezeSetting: ((0.5, 4.0), {}),
    opo.OpoParams: ((0.5, 0.9, 1e6), {}),
    opo.SqueezeSpectrumPoint: ((1e3, 0.5, 2.5), {}),
    decoherence.PhaseNoise: ((0.01,), {}),
    decoherence.LossBudget: (((("escape", 0.9), ("detector", 0.95)),), {}),
    decoherence.SqueezeMeasurement: (
        (),
        {"added_loss": 0.1, "squeeze_db": -3.0, "antisqueeze_db": 6.0},
    ),
    decoherence.FitResult: ((0.1, decoherence.PhaseNoise(0.02), 0.5, True), {}),
    detection.LightSource: ((1.064e-6, 1e-3, 1e-6), {}),
    detection.MeasurementWindowing: ((1e-4,), {"n_windows": 3}),
    detection.PhotonRecord: ((WINDOWS, np.array([1, 3]), 2.0, 7), {}),
    detection.DetectorParams: ((), {"visibility": 0.9, "quantum_efficiency": 0.8}),
    detection.TimeSeries: ((1e6, np.arange(4.0)), {"lo_phase": 0.3}),
    detection.NoiseSpectrum: ((np.array([1.0, 2.0]), np.array([1.0, 0.5]), 1.0), {}),
    budget.FilterCavityParams: ((10.0, -5.0), {}),
    budget.IfoConfig: ((1e6, 40.0, 4000.0, 1.064e-6), {"matched_rotation": True}),
    budget.BudgetCurve: (tuple(np.array([1.0, 2.0]) * k for k in (1, 2, 3, 4, 5)), {}),
}
IDENTITY_EQUALITY = {
    gaussian.GaussianState,
    detection.PhotonRecord,
    detection.TimeSeries,
    detection.NoiseSpectrum,
    budget.BudgetCurve,
}


def _reference(cls):
    """``@dataclass(frozen=True, eq=...)`` over the fields and checks of ``cls``."""
    specs = [
        (f.name, f.type)
        if f.default is dataclasses.MISSING
        else (f.name, f.type, dataclasses.field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    checks = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    eq = cls not in IDENTITY_EQUALITY
    ref = dataclasses.make_dataclass(
        cls.__name__, specs, namespace=checks, frozen=True, eq=eq
    )
    ref.__qualname__ = cls.__qualname__
    return ref


def _build(cls, ref):
    """An instance of ``cls`` and of its reference, from the same arguments."""
    args, kwargs = CASES[cls]
    record = cls(*args, **kwargs)
    if cls is gaussian.GaussianState:  # its own __init__(mean, cov)
        fields = dataclasses.fields(record)
        return record, ref(**{f.name: getattr(record, f.name) for f in fields})
    return record, ref(*args, **kwargs)


def _outcome(call):
    """``call()``'s value, or the type and message of what it raised."""
    try:
        return call()
    except Exception as error:
        return type(error), str(error)


def test_the_cases_cover_every_record_once():
    records = {
        cls
        for module in (budget, cli, decoherence, detection, gaussian, opo)
        for cls in vars(module).values()
        if isinstance(cls, type)
        and issubclass(cls, gaussian._Record)
        and cls is not gaussian._Record
        and cls.__module__ == module.__name__
    }
    assert records == set(CASES)
    assert len(records) == 20


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_its_dataclass(cls):
    ref = _reference(cls)
    (record, expected), (twin, expected_twin) = _build(cls, ref), _build(cls, ref)

    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(record)
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] == [
        (f.name, f.type, f.default) for f in dataclasses.fields(ref)
    ]
    assert cls.__match_args__ == ref.__match_args__
    assert repr(record) == repr(expected)
    assert vars(record).keys() == vars(expected).keys()  # defaults filled in
    assert (record == twin) is (expected == expected_twin)
    assert record == record and record != object() and not record == object()
    if cls in IDENTITY_EQUALITY:
        assert record != twin and hash(record) == object.__hash__(record)
    else:
        assert record == twin
        assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(expected))
        assert _outcome(lambda: hash(twin)) == _outcome(lambda: hash(expected))
    for name in [f.name for f in dataclasses.fields(cls)] + ["not_a_field"]:
        for change in (lambda r: setattr(r, name, 1), lambda r: delattr(r, name)):
            error = _outcome(lambda: change(record))
            assert error[0] is dataclasses.FrozenInstanceError
            assert error == _outcome(lambda: change(expected))
    assert repr(dataclasses.asdict(record)) == repr(dataclasses.asdict(expected))
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)
    if cls in IDENTITY_EQUALITY:
        return  # GaussianState takes (mean, cov), and arrays do not compare
    assert pickle.loads(pickle.dumps(record)) == record
    assert dataclasses.replace(record) == record
    names = [f.name for f in dataclasses.fields(cls)]
    values = [getattr(record, name) for name in names]
    assert cls(*values) == cls(**dict(zip(names, values))) == record
    assert cls(**dict(reversed(list(zip(names, values))))) == record
    assert list(vars(cls(**dict(reversed(list(zip(names, values))))))) == names


# GaussianState keeps its own __init__(mean, cov).
@pytest.mark.parametrize(
    "cls",
    [cls for cls in CASES if cls is not gaussian.GaussianState],
    ids=lambda cls: cls.__name__,
)
def test_a_record_takes_the_arguments_of_its_dataclass(cls):
    ref = _reference(cls)
    signature = inspect.signature(cls)
    parameters = [(p.name, p.kind, p.default) for p in signature.parameters.values()]
    assert parameters == [
        (p.name, p.kind, p.default) for p in inspect.signature(ref).parameters.values()
    ]
    args, kwargs = CASES[cls]
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    values = list(bound.arguments.values())
    for bad_args, bad_kwargs in [
        (values, {"not_a_field": 1}),  # an unknown keyword
        ([*values, 1], {}),  # one argument too many
        (values, {parameters[0][0]: values[0]}),  # the first field twice
    ]:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            ref(*bad_args, **bad_kwargs)
    if any(p.default is p.empty for p in signature.parameters.values()):
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            ref()


def test_a_record_still_runs_its_checks():
    with pytest.raises(ValueError, match="pump_ratio must be finite"):
        opo.OpoParams(1.0, 0.9, 1e6)
    with pytest.raises(ValueError, match="pump_ratio must be finite"):
        opo.OpoParams(pump_ratio=1.0, escape_efficiency=0.9, half_linewidth=1e6)
    with pytest.raises(ValueError, match="window shape"):
        detection.MeasurementWindowing(1e-4, "round")
    # A normalizing check still rewrites its field, on every path.
    setting = gaussian.SqueezeSetting(theta=4.0, r=1)
    assert setting == gaussian.SqueezeSetting(1.0, 4.0 - np.pi)
    assert type(setting.r) is float
