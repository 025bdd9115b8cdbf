import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from polekit import expr as ex
from polekit.worldlines import Worldline


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def adapted_worldline():
    return Worldline.static_at((0.0, 0.0, 0.0), (0.0, 4.0))


@pytest.fixture
def wobble_worldline():
    """A worldline staying near r = 1 in cylindrical-style coordinates,
    safe for every registry chart."""
    return Worldline(
        (
            ex.Var(0),
            ex.parse("1 + 0.2*sin(0.7*tau)", ex.TAU_VARS),
            ex.parse("0.3*cos(0.5*tau)", ex.TAU_VARS),
            ex.parse("0.1*tau", ex.TAU_VARS),
        ),
        (0.0, 6.0),
    )
