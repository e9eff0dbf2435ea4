"""Property tests for the on-disk formats: random checkpoints and trainable
layers round-trip exactly and re-save to the same bytes, and every reader,
given arbitrary bytes or a truncated or bit-flipped copy of a real file,
raises nothing but BundleError."""

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergelab.engine import LayerParams, ParamSet
from mergelab.merging import CoefficientMatrix, TrainableLayer
from mergelab.serialization import (
    BUNDLE_VERSION,
    MAGIC,
    BundleError,
    load_bundle,
    load_checkpoint,
    load_coeffs,
    load_suite,
    load_trainable,
    read_manifest,
    save_bundle,
    save_checkpoint,
    save_coeffs,
    save_suite,
    save_trainable,
)
from mergelab.suites import SuiteConfig, gen_suite

from conftest import params_equal, random_paramset

PROPERTY = settings(max_examples=60, deadline=None)

task_name = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bundles")


def _layer(rng, out_dim, in_dim):
    return LayerParams(rng.normal(size=(out_dim, in_dim)), rng.normal(size=out_dim))


@PROPERTY
@given(depth=st.integers(1, 4), tasks=st.lists(task_name, min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trips_exactly_and_resaves_the_same_bytes(workdir, depth, tasks, seed):
    rng = np.random.default_rng(seed)
    dims = [int(d) for d in rng.integers(1, 7, depth + 1)]
    params = ParamSet(tuple(_layer(rng, o, i) for i, o in zip(dims, dims[1:])),
                      {t: _layer(rng, int(rng.integers(1, 5)), dims[-1]) for t in tasks})
    path, again = workdir / "rt.ckpt", workdir / "rt2.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert params_equal(loaded, params)
    save_checkpoint(loaded, again)
    assert again.read_bytes() == path.read_bytes()


selectors = st.one_of(st.just("head"), st.integers(0, 5),
                      st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True).map(tuple))


@PROPERTY
@given(picks=st.dictionaries(task_name, selectors, min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_trainable_layers_round_trip_exactly_and_resave_the_same_bytes(workdir, picks, seed):
    rng = np.random.default_rng(seed)
    trained = {}
    for task, sel in picks.items():
        layers = tuple(_layer(rng, *(int(d) for d in rng.integers(1, 6, 2)))
                       for _ in (sel if isinstance(sel, tuple) else (sel,)))
        trained[task] = TrainableLayer(sel, layers if isinstance(sel, tuple) else layers[0])
    path, again = workdir / "rt.bundle", workdir / "rt2.bundle"
    save_trainable(trained, path)
    loaded = load_trainable(path)
    assert loaded.keys() == trained.keys()
    for task, tr in trained.items():
        assert loaded[task].selector == tr.selector
        assert all(np.array_equal(a.flat, b.flat)
                   for a, b in zip(loaded[task].layers(), tr.layers(), strict=True))
    save_trainable(loaded, again)
    assert again.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# corrupt bytes


def _rewrite(path, out, mutate):
    meta, arrays = load_bundle(path)
    mutate(arrays)
    save_bundle(out, meta, arrays)


@pytest.fixture(scope="module")
def files(workdir):
    """{name: (loader, bytes)}: one real file of each kind, then three
    well-formed bundles that hold a layer or a suite value no model can use."""
    rng = np.random.default_rng(40)
    d = workdir
    save_checkpoint(random_paramset(rng), d / "m.ckpt")
    save_suite(gen_suite(SuiteConfig(num_tasks=2, samples_per_split=12, regression_tasks=(1,))),
               d / "suite.bundle")
    save_trainable({"task0": TrainableLayer((0, 1), (_layer(rng, 4, 6), _layer(rng, 3, 4))),
                    "task1": TrainableLayer("head", _layer(rng, 3, 4))}, d / "trainable.bundle")
    save_coeffs(CoefficientMatrix(("a", "b"), rng.normal(size=(2, 3))), d / "coeffs.json")
    _rewrite(d / "m.ckpt", d / "nan.ckpt", lambda a: a["enc0.w"].__setitem__((0, 0), np.nan))
    _rewrite(d / "trainable.bundle", d / "flat.bundle",
             lambda a: a.update({"task0.0.w": a["task0.0.w"].ravel()}))
    _rewrite(d / "suite.bundle", d / "nan_suite.bundle",
             lambda a: a["task0.x_test"].__setitem__((0, 0), np.nan))
    loaders = {"m.ckpt": load_checkpoint, "suite.bundle": load_suite,
               "trainable.bundle": load_trainable, "coeffs.json": load_coeffs,
               "nan.ckpt": load_checkpoint, "flat.bundle": load_trainable,
               "nan_suite.bundle": load_suite}
    return {name: (load, (d / name).read_bytes()) for name, load in loaders.items()}


UNUSABLE = ("nan.ckpt", "flat.bundle", "nan_suite.bundle")


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["m.ckpt", "suite.bundle", "trainable.bundle", "coeffs.json"]),
       cut=st.none() | st.integers(0, 2**20), flips=st.lists(st.integers(0, 2**24), max_size=3))
@example(name="nan.ckpt", cut=None, flips=[])
@example(name="flat.bundle", cut=None, flips=[])
@example(name="nan_suite.bundle", cut=None, flips=[])
def test_loaders_raise_only_bundle_errors_on_corrupt_bytes(workdir, files, name, cut, flips):
    load, blob = files[name]
    blob = bytearray(blob if cut is None else blob[:cut % len(blob)])
    for bit in flips:
        if blob:
            blob[bit // 8 % len(blob)] ^= 1 << bit % 8
    path = workdir / f"corrupt_{name}"
    path.write_bytes(bytes(blob))
    try:
        load(path)
    except BundleError:
        return
    assert name not in UNUSABLE, f"{name} loaded"


# ---------------------------------------------------------------------------
# arbitrary bytes

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=12)
# array entries a header might declare: any dtype name, any number of dimensions
entries = st.fixed_dictionaries({
    "name": st.text(max_size=6) | st.integers(),
    "dtype": st.sampled_from(["float64", "int64", "float32"]),
    "shape": st.lists(st.integers(0, 2**64), max_size=70) | json_values})
headers = st.fixed_dictionaries(
    {"meta": st.fixed_dictionaries({"format": st.sampled_from(["paramset", "suite",
                                                                "trainable"])},
                                   optional={k: json_values for k in
                                             ("encoder", "heads", "config", "tasks", "selectors")}),
     "arrays": st.lists(entries, max_size=3)})


def _framed(header: bytes, payload: bytes = b"") -> bytes:
    """Bundle bytes with a valid magic, version and header length."""
    return MAGIC + struct.pack("<II", BUNDLE_VERSION, len(header)) + header + payload


blobs = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(lambda b: MAGIC + b),
    st.tuples(headers | json_values, st.binary(max_size=64)).map(
        lambda hp: _framed(json.dumps(hp[0]).encode(), hp[1])),
    json_values.map(lambda v: json.dumps(v).encode()))
READERS = {"load_suite": load_suite, "load_checkpoint": load_checkpoint,
           "load_trainable": load_trainable, "load_coeffs": load_coeffs,
           "read_manifest": read_manifest}
DEEP = b"[" * 100_000  # deeper than the JSON parser recurses


@settings(max_examples=300, deadline=None)
@given(reader=st.sampled_from(sorted(READERS)), blob=blobs)
@example(reader="read_manifest", blob=b"\xff\xfe")
@example(reader="read_manifest", blob=b"[]")
@example(reader="read_manifest", blob=DEEP)
@example(reader="load_coeffs", blob=DEEP)
@example(reader="load_checkpoint", blob=_framed(DEEP))
@example(reader="load_suite", blob=_framed(json.dumps(
    {"meta": {}, "arrays": [{"name": "a", "dtype": "int64", "shape": [0, 2**63]}]}).encode()))
@example(reader="load_trainable", blob=_framed(json.dumps(
    {"meta": {}, "arrays": [{"name": "a", "dtype": "int64", "shape": [0] * 70}]}).encode()))
def test_readers_raise_only_bundle_errors_on_arbitrary_bytes(workdir, reader, blob):
    path = workdir / "arbitrary"
    path.write_bytes(blob)
    try:
        READERS[reader](path)
    except BundleError as exc:
        assert str(exc).startswith(f"{path}: "), exc
