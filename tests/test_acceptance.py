"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import numpy as np
import pytest

from brightpath import acceptance
from brightpath.berry import SIGMA_Y


@pytest.mark.parametrize(
    "criterion",
    acceptance.CRITERIA,
    ids=[f"criterion_{i:02d}_{fn.__name__.split('_', 2)[2]}" for i, fn in enumerate(acceptance.CRITERIA, 1)],
)
def test_criterion(criterion):
    result = criterion(acceptance.DEFAULT_SEED)
    line = f"[{'PASS' if result.passed else 'FAIL'}] criterion {result.number} ({result.name}): {result.detail}"
    print(line)
    assert result.passed, line


def test_criterion_10_is_the_closed_form_commutator_norm(monkeypatch):
    # Its loops turn by pi/4: u_y = exp(-i sigma_y pi/4) and u_z =
    # diag(1, exp(-i pi/4)), whose commutator has the Frobenius norm
    # 0.765367 (the anticommutator's is 2.72).  The criterion's last norm
    # is the one it reports.
    u_y = np.cos(np.pi / 4) * np.eye(2) - 1j * np.sin(np.pi / 4) * SIGMA_Y
    u_z = np.diag([1.0, np.exp(-1j * np.pi / 4)])
    closed_form = np.linalg.norm(u_y @ u_z - u_z @ u_y)
    assert abs(closed_form - 0.765367) < 1e-6
    norms = []
    norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kwargs: norms.append(norm(*args, **kwargs)) or norms[-1])
    result = acceptance.criterion_10_universality()
    assert abs(norms[-1] - closed_form) < 1e-6
    assert result.detail == f"commutator norm {norms[-1]:.3f} (must exceed 0.1)"
