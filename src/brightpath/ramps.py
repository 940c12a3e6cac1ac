"""Monotone ramp profiles shared by gate schedules, STIRAP paths and clocks.

A ramp maps normalized progress s in [0, 1] to [0, 1].  The smooth profile
sin^2(pi s / 2) starts and ends with zero velocity, which suppresses
diabatic ringing at schedule boundaries in full-dynamics runs.
"""

from __future__ import annotations

import numpy as np

RAMP_NAMES = ("linear", "smooth")


def check_ramp(name, argument: str = "ramp") -> None:
    """Reject a ramp name outside ``RAMP_NAMES``; the message starts with
    the name of the caller's ``argument``."""
    if name not in RAMP_NAMES:
        raise ValueError(f"{argument} must be one of {RAMP_NAMES}, got {name!r}")


def ramp_value(name: str, s: np.ndarray) -> np.ndarray:
    """Ramp profile, elementwise on an array of progress values."""
    check_ramp(name)
    return s if name == "linear" else np.sin(np.pi * s / 2.0) ** 2


def ramp_rate(name: str, s: np.ndarray) -> np.ndarray:
    """Derivative of the ramp profile with respect to s, elementwise."""
    check_ramp(name)
    return np.ones_like(s) if name == "linear" else (np.pi / 2.0) * np.sin(np.pi * s)
