import warnings

import numpy as np
import pytest

# hypothesis reports a failing example with a patch suggestion, importing
# hypothesis.extra._patching, whose libcst import raises a mypy_extensions
# DeprecationWarning; under filterwarnings = ["error"] that ends the session
# with an INTERNALERROR. Import it here with that one warning category muted.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from nqac.instances import k4_antiferromagnet
from nqac.ising import brute_force_ground


@pytest.fixture(scope="session")
def k4():
    return k4_antiferromagnet()


@pytest.fixture(scope="session")
def k4_ground(k4):
    return brute_force_ground(k4)


@pytest.fixture(scope="session")
def k4_ground_keys(k4_ground):
    _, states = k4_ground
    return {s.tobytes() for s in states}


def spin_array(*vals):
    return np.asarray(vals, dtype=np.int8)
