"""Shared fixtures."""

import pytest

from catpark import kernels


@pytest.fixture
def transfer_steps(monkeypatch):
    """Record every ``kernels._extend`` call as (statistic, m, k), where
    statistic names the DP ("luck", "quad" or "multi") and k is the
    position the step appends; a pass of length n runs k = 2..n."""
    steps = []
    real = kernels._extend

    def spy(rows, k, m, moves):
        steps.append((moves.__name__.split("_")[1], m, k))
        return real(rows, k, m, moves)

    monkeypatch.setattr(kernels, "_extend", spy)
    return steps
