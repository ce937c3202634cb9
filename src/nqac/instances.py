"""Bundled problem instances and data files.

``k4_af`` is the uniform antiferromagnet on K4 (all J = 1, h = 0); the
``k8_*`` / ``k10_*`` instances are complete graphs with couplings drawn from
{0.1, 0.2, ..., 1.0}, shipped verbatim from their original tables with
1-based labels (shifted to 0-based on load).
"""

from __future__ import annotations

from importlib import resources


from .ising import IsingProblem, problem_from_dict

INSTANCE_NAMES = ("k4_af", "k8_harder", "k8_easier", "k10_harder", "k10_easier")


def _data_text(filename: str) -> str:
    return (resources.files("nqac") / "data" / filename).read_text()


def load_instance(name: str) -> IsingProblem:
    """Load a bundled instance by name (see ``INSTANCE_NAMES``)."""
    if name not in INSTANCE_NAMES:
        raise KeyError(f"unknown instance {name!r}; choose from {INSTANCE_NAMES}")
    import json

    return problem_from_dict(json.loads(_data_text(name + ".json")))


def k4_antiferromagnet(alpha: float = 1.0) -> IsingProblem:
    """The K4 antiferromagnet: all couplings +1, no fields."""
    coup = {(i, j): 1.0 for i in range(4) for j in range(i + 1, 4)}
    return IsingProblem.from_couplings(4, couplings=coup, alpha=alpha)


def dead8_mask() -> dict:
    """The bundled synthetic 8-dead-qubit mask for the 8x8 hardware graph."""
    import json

    return json.loads(_data_text("chimera_8x8_dead8.json"))


def device_like_schedule_text() -> str:
    """CSV text of the bundled device-like annealing schedule."""
    return _data_text("schedule_device_like.csv")
