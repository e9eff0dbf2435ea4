import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from mergelab.adaptation import train_experts
from mergelab.engine import LayerParams, ParamSet
from mergelab.suites import SuiteConfig, gen_suite

REPO_ROOT = Path(__file__).resolve().parents[1]
REFERENCE_CONFIG = REPO_ROOT / "configs" / "reference.json"

# every property test draws the same examples on every run (a hash of the test
# seeds them); `pytest --hypothesis-profile explore` draws fresh ones instead
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")


def load_reference():
    with open(REFERENCE_CONFIG, encoding="utf-8") as f:
        return json.load(f)


def build_reference_models(seed: int):
    """Suite + pre-trained backbone + per-task experts for one seed of the
    reference configuration."""
    ref = load_reference()
    cfg = SuiteConfig(**dict(ref["suite"], seed=seed))
    suite = gen_suite(cfg)
    pre, experts = train_experts(suite, seed=seed, **ref["finetune"])
    return cfg, suite, pre, experts


def random_paramset(rng, dims=(5, 6, 4), tasks=("a", "b"), classes=3) -> ParamSet:
    enc = tuple(
        LayerParams(rng.normal(0.0, 1.0, (o, i)), rng.normal(0.0, 1.0, o))
        for i, o in zip(dims, dims[1:])
    )
    heads = {
        t: LayerParams(rng.normal(0.0, 1.0, (classes, dims[-1])), rng.normal(0.0, 1.0, classes))
        for t in tasks
    }
    return ParamSet(enc, heads)


def fd_rel_error(fd: float, analytic: float, zero_tol: float = 1e-7) -> float:
    """Relative disagreement between a central-difference estimate and an
    analytic gradient. Values that agree to within zero_tol absolutely count
    as matching: below that scale the difference quotient is pure rounding
    noise from loss cancellation."""
    scale = max(abs(fd), abs(analytic))
    if scale < zero_tol:
        return 0.0
    return abs(fd - analytic) / scale


def params_equal(a: ParamSet, b: ParamSet) -> bool:
    if len(a.encoder) != len(b.encoder) or set(a.heads) != set(b.heads):
        return False
    for la, lb in zip(a.encoder, b.encoder):
        if not (np.array_equal(la.weight, lb.weight) and np.array_equal(la.bias, lb.bias)):
            return False
    for t in a.heads:
        if not (np.array_equal(a.heads[t].weight, b.heads[t].weight)
                and np.array_equal(a.heads[t].bias, b.heads[t].bias)):
            return False
    return True


@pytest.fixture(scope="session")
def reference_run():
    """Seed-0 reference suite with trained backbone and experts."""
    return build_reference_models(0)
