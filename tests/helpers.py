"""Test data and worker-process helpers shared by the config, output and experiment tests."""

import os

import pytest

# the CPUs this process may run on: the most workers a test may ask for
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]

needs_fork = pytest.mark.skipif(not hasattr(os, "fork") or len(CPUS) < 2,
                                reason="worker processes need os.fork and two CPUs")


def on_cpus(monkeypatch, count: int):
    """Let the package see `count` of this process's CPUs, so it uses at most that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(CPUS[:count]), raising=False)


def assert_no_child_left():
    """Every worker was reaped: this process has no child, running or exited."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(patch) -> list:
    """A list that gets one entry per os.fork call this process makes from now on."""
    forks, fork = [], os.fork
    patch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


# one small config per experiment kind
SMALL_CONFIGS = {
    "phase-portrait": dict(kappa=2.5, grid=(2, 2), steps=3),
    "lyapunov": dict(kappa=6.0, n_blocks=5, steps_per_block=3),
    "entropy-dynamics": dict(kappa=2.5, j=4, steps=5),
    "mi-dynamics": dict(kappa=6.0, j=100, count=30, steps=4),
    "teq-scaling": dict(kappa=2.5, j_list=(25, 50), count=64, steps=120),
    "entropy-map": dict(kappa=2.5, j=4, grid=(2, 2), window=(5, 15)),
    "thermo-map": dict(kappa=2.5, j=10, grid=(2, 2), count=20, window=(2, 4)),
    "mi-map": dict(kappa=2.5, j=100, grid=(2, 2), count=30, window=(2, 4)),
    "vn-vs-linear": dict(),
    "mi-selftest": dict(count=60),
}
