"""Every frozen record is built one way: by ``_Record.__init__``, which walks
the fields once, ``GaussianState`` included."""

import inspect

import pytest

from sqzlab import gaussian, opo
from test_records import CASES


def test_only_gaussian_state_defines_its_own_init():
    assert [cls for cls in CASES if "__init__" in vars(cls)] == [gaussian.GaussianState]
    assert list(inspect.signature(gaussian.GaussianState).parameters) == ["mean", "cov"]


@pytest.mark.parametrize(
    "build",
    [
        lambda: gaussian.GaussianState([0.5, -1.0], [[2.0, 0.3], [0.3, 0.8]]),
        gaussian.vacuum,
    ],
    ids=["GaussianState", "vacuum"],
)
def test_a_state_reaches_the_record_init_once(monkeypatch, build):
    # A plain function, not a mock: super().__init__ must still bind it.
    calls, init = [], gaussian._Record.__init__

    def counted(self, *args, **kwargs):
        calls.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(gaussian._Record, "__init__", counted)
    state = build()
    assert calls == [gaussian.GaussianState]
    assert state.axes[0] <= state.axes[1] and not state.mean.flags.writeable


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((0.5, 0.9, 1e6, 1), {}, r"^OpoParams\(\) takes 3 arguments, got 4$"),
        ((0.5, 0.9), {}, r"^OpoParams\(\) missing argument 'half_linewidth'$"),
        ((0.5, 0.9, 1e6), {"gain": 1}, r"got unexpected arguments \['gain'\]$"),
        ((0.5, 0.9, 1e6), {"pump_ratio": 0.5}, r"unexpected arguments \['pump_ratio'\]$"),
    ],
    ids=["too-many", "missing", "unknown", "repeated"],
)
def test_a_bad_call_names_the_argument(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        opo.OpoParams(*args, **kwargs)
