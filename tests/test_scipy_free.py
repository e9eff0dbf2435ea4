"""The package runs on numpy alone: start-up loads no scipy module, and the
numpy average ranks and task rotations agree with scipy, which these tests
use only as a reference."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import rankdata

from mergelab.analysis import _average_ranks
from mergelab.suites import SuiteConfig, _task_rotation, spawn_rng

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)


def test_cli_start_up_imports_no_scipy():
    proc = _run("-X", "importtime", "-m", "mergelab", "--version")
    assert proc.returncode == 0, proc.stderr
    assert "mergelab" in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "mergelab.cli" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]

    proc = _run("-c", "import sys, mergelab.cli; "
                      "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("values, ranks", [
    ([3, 1, 3, 2], [3.5, 1, 3.5, 2]),
    ([7, 7, 7], [2, 2, 2]),
    ([5], [1]),
    ([2, 1, 2, 1, 2], [4, 1.5, 4, 1.5, 4]),
    ([-0.0, 0.0, -1.0], [2.5, 2.5, 1]),
])
def test_average_ranks_hand_cases(values, ranks):
    assert _average_ranks(np.array(values, dtype=np.float64)).tolist() == ranks


# small integers make ties common; the floats mix in distinct values
tied_vectors = st.lists(st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6),
                        min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(values=tied_vectors)
def test_average_ranks_sum_and_halves(values):
    ranks = _average_ranks(np.array(values))
    n = len(values)
    assert ranks.sum() == n * (n + 1) / 2
    assert np.array_equal(2 * ranks, np.round(2 * ranks))


@settings(max_examples=200, deadline=None)
@given(values=tied_vectors, nan_at=st.none() | st.integers(0, 39))
def test_average_ranks_equal_scipy_rankdata(values, nan_at):
    a = np.array(values)
    if nan_at is not None:
        a[nan_at % len(a)] = np.nan  # any NaN makes every rank NaN, as in scipy
    assert np.array_equal(_average_ranks(a), rankdata(a, method="average"), equal_nan=True)


ROTATION_CONFIGS = [
    SuiteConfig(input_dim=d, shared_subspace_dim=1, task_rotation_strength=s, seed=seed)
    for d, s, seed in ((1, 1.0, 0), (2, 0.5, 1), (10, 0.3, 2), (24, 0.5, 0), (24, 1.0, 7),
                       (40, 0.8, 3))
]


def _expm_rotation(cfg, k):
    """The rotation as the suite defines it, through scipy's expm."""
    a = spawn_rng(cfg.seed, "rotation", k).normal(0.0, 1.0, (cfg.input_dim, cfg.input_dim))
    return expm(cfg.task_rotation_strength * (a - a.T) / np.sqrt(2.0 * cfg.input_dim))


@pytest.mark.parametrize("cfg", ROTATION_CONFIGS, ids=lambda c: f"d{c.input_dim}-s{c.task_rotation_strength}")
def test_task_rotation_is_a_proper_rotation_equal_to_expm(cfg):
    for k in range(3):
        rot = _task_rotation(cfg, k)
        assert np.abs(rot @ rot.T - np.eye(cfg.input_dim)).max() <= 1e-12
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rot - _expm_rotation(cfg, k)).max() <= 1e-13


def test_task_rotation_is_exactly_the_identity_at_strength_zero():
    for d in (1, 5, 24):
        cfg = SuiteConfig(input_dim=d, shared_subspace_dim=1, task_rotation_strength=0.0)
        for k in range(3):
            assert np.array_equal(_task_rotation(cfg, k), np.eye(d))
