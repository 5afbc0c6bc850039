"""Shared fixtures."""

import os

import pytest

from catpark import kernels, polynomials


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


@pytest.fixture
def two_lanes(monkeypatch):
    """Let a verify run of several scopes fork its second lane even where
    one CPU is usable, and record the pid of each child it forks."""
    children = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    return children


@pytest.fixture
def guard_scans(monkeypatch):
    """Record the size of every term map ``polynomials._scan_guard`` looks
    at: the exact scan a product runs only when its degree bound passes
    MAX_EXPONENT."""
    sizes = []
    real = polynomials._scan_guard

    def spy(acc, guard):
        sizes.append(len(acc))
        real(acc, guard)

    monkeypatch.setattr(polynomials, "_scan_guard", spy)
    return sizes
