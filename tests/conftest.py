import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from insdel.concat import ConcatParams, make_concat_params

from oracles import DESK

# pytest's `pythonpath` setting reaches only this process; export src so
# the CLI subprocesses the suite starts import the same package.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def desk_params() -> ConcatParams:
    """The pinned small-scale concatenation instance used across the suite."""
    return make_concat_params(**DESK)
