"""The one reading of a trained-layer selector and the one placement rule.

The `--trainable-layer` flag, an `adapt` config file and the meta of a
trainable-layer bundle all go through `merging.read_selector`; every
assembly places the layers with `merging.layer_positions` and checks that
they fit the layers they replace.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergelab.cli import main
from mergelab.config import ConfigError, adapt_config_from_dict
from mergelab.engine import LayerParams, ShapeError
from mergelab.merging import (
    CoefficientMatrix,
    MergedAssembly,
    TrainableLayer,
    layer_positions,
    read_selector,
)
from mergelab.serialization import (
    BundleError,
    load_trainable,
    save_bundle,
    save_trainable,
)

DIMS = (2, 3, 2, 3, 2, 3, 2)  # an encoder of depth 6 whose adjacent layers differ in shape
DEPTH = len(DIMS) - 1
HEAD_OUT = 4

indices = st.integers(0, DEPTH - 1)
ranges = st.tuples(indices, indices).filter(lambda r: r[0] < r[1])
# distinct indices, so that every accepted selector also places
valid_selectors = st.one_of(
    st.sampled_from(["head", "none", None]),
    indices,
    st.lists(indices, min_size=1, max_size=4, unique=True),
    indices.map(str),
    ranges.map(lambda r: f"{r[0]}:{r[1]}"),
)


def _numeric_text(s: str) -> bool:
    lo, colon, hi = s.partition(":")
    return all(p.isascii() and p.isdigit() for p in ((lo, hi) if colon else (lo,)))


bad_scalars = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(max_value=-1),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).filter(
        lambda s: s not in ("head", "none") and not _numeric_text(s)),
)
invalid_selectors = st.one_of(
    bad_scalars,
    st.just([]),
    st.just("1:1"),
    st.lists(st.one_of(bad_scalars, indices), min_size=1, max_size=3).filter(
        lambda v: not all(type(i) is int and i >= 0 for i in v)),
)


def _config_reads(value):
    try:
        return True, adapt_config_from_dict({"trainable_layer": value}).trainable_layer
    except ConfigError as exc:
        assert str(exc).startswith("adapt.trainable_layer: "), exc
        return False, None


def _read_count(value) -> int:
    """How many layers a bundle selector `value` reads (none for a rejected
    value, which fails before any array is read)."""
    try:
        selector = read_selector(value)
    except ValueError:
        return 0
    return 0 if selector is None else len(selector) if isinstance(selector, tuple) else 1


def _bundle_reads(value, tmp: Path):
    path = tmp / "selector.bundle"
    rng = np.random.default_rng(0)
    arrays = {}
    for p in range(_read_count(value)):  # only the layers that the selector reads
        arrays[f"a.{p}.w"], arrays[f"a.{p}.b"] = rng.normal(size=(2, 2)), rng.normal(size=2)
    save_bundle(path, {"format": "trainable", "selectors": {"a": value}}, arrays)
    try:
        loaded = load_trainable(path)
    except BundleError as exc:
        assert "meta field 'selectors.a'" in str(exc)
        return False, None
    return True, loaded["a"].selector if "a" in loaded else None


@settings(max_examples=150, deadline=None)
@given(value=st.one_of(valid_selectors, invalid_selectors))
def test_config_and_bundle_readers_accept_and_reject_the_same_values(value):
    with tempfile.TemporaryDirectory() as tmp:
        assert _config_reads(value) == _bundle_reads(value, Path(tmp))


@settings(max_examples=60, deadline=None)
@given(value=valid_selectors)
def test_a_bundle_array_beyond_the_selector_is_rejected_naming_it(value):
    # the arrays a selector reads load; one position past them names no layer
    n = _read_count(value)
    arrays = {}
    for p in range(n + 1):
        arrays[f"a.{p}.w"], arrays[f"a.{p}.b"] = np.zeros((2, 2)), np.zeros(2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "selector.bundle"
        save_bundle(path, {"format": "trainable", "selectors": {"a": value}}, arrays)
        with pytest.raises(BundleError, match=f"array 'a.{n}.b' is named by no meta field"):
            load_trainable(path)


@settings(max_examples=60, deadline=None)
@given(value=invalid_selectors)
def test_a_rejected_config_value_names_trainable_layer(value):
    with pytest.raises(ConfigError, match="^adapt.trainable_layer: "):
        adapt_config_from_dict({"trainable_layer": value})


def _fitting_layer(rng, p: int) -> LayerParams:
    out_dim, in_dim = (HEAD_OUT, DIMS[-1]) if p == DEPTH else (DIMS[p + 1], DIMS[p])
    return LayerParams(rng.normal(size=(out_dim, in_dim)), rng.normal(size=out_dim))


def _assembly(trainable: dict) -> MergedAssembly:
    rng = np.random.default_rng(1)
    pre = tuple(_fitting_layer(rng, p) for p in range(DEPTH))
    head = _fitting_layer(rng, DEPTH)
    return MergedAssembly(pre, [], CoefficientMatrix((), np.zeros((0, DEPTH))), {"a": head},
                          trainable)


@settings(max_examples=80, deadline=None)
@given(value=valid_selectors, seed=st.integers(0, 2**16))
def test_every_saved_selector_loads_back_equal_and_fits_the_assembly(value, seed):
    selector = read_selector(value)
    if selector is None:
        return
    rng = np.random.default_rng(seed)
    layers = tuple(_fitting_layer(rng, p) for p in layer_positions(selector, DEPTH))
    trained = TrainableLayer(selector, layers if isinstance(selector, tuple) else layers[0])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trainable.bundle"
        save_trainable({"a": trained}, path)
        loaded = load_trainable(path)["a"]
    assert loaded.selector == selector and type(loaded.selector) is type(selector)
    assert [l.flat.tobytes() for l in loaded.layers()] == [l.flat.tobytes() for l in layers]
    model = _assembly({"a": loaded}).materialize("a")
    for p, layer in zip(layer_positions(selector, DEPTH), layers):
        got = model.head("a") if p == DEPTH else model.encoder[p]
        assert np.array_equal(got.flat, layer.flat)


@pytest.mark.parametrize("value, selector", [
    ("head", "head"), ("none", None), (None, None), (2, 2), ("2", 2), ("01", 1),
    ([1], (1,)), ([0, 2], (0, 2)), ((3, 1), (3, 1)), ("0:2", (0, 1)), ("1:4", (1, 2, 3)),
])
def test_read_selector_normalizes_every_form(value, selector):
    got = read_selector(value)
    assert got == selector and type(got) is type(selector)


@pytest.mark.parametrize("value, message", [
    (True, "True is not"), (1.9, "1.9 is not"), ([0.7, 1.2], r"\[0.7, 1.2\] is not"),
    (-1, "-1 is not"), ([], "an empty selector"), ("2:1", "an empty selector"),
    ("x", "'x' is not"), ("0:y", "'0:y' is not"), (" 1", "' 1' is not"), ("-1", "'-1' is not"),
    ("1:2:3", "'1:2:3' is not"), ({"a": 1}, "is not"),
])
def test_read_selector_rejects_what_names_no_layer(value, message):
    with pytest.raises(ValueError, match=f"^trainable_layer: .*{message}"):
        read_selector(value)


def test_layer_positions_put_the_head_after_the_encoder():
    assert layer_positions("head", 3) == (3,)
    assert layer_positions(2, 3) == (2,)
    assert layer_positions((2, 0), 3) == (2, 0)
    with pytest.raises(ShapeError, match="trainable layer 3 is out of range for encoder depth 3"):
        layer_positions((0, 3), 3)
    with pytest.raises(ShapeError, match=r"trainable layers \(1, 1\) repeat a layer"):
        layer_positions((1, 1), 3)


def test_assembly_rejects_layers_that_do_not_fit():
    rng = np.random.default_rng(2)
    narrow_head = LayerParams(rng.normal(size=(HEAD_OUT - 1, DIMS[-1])), rng.normal(size=3))
    with pytest.raises(ShapeError, match="task 'a' have shapes"):
        _assembly({"a": TrainableLayer("head", narrow_head)})
    wrong = TrainableLayer((0, 1), (_fitting_layer(rng, 1), _fitting_layer(rng, 0)))
    with pytest.raises(ShapeError, match="task 'a' have shapes"):
        _assembly({"a": wrong})
    with pytest.raises(ShapeError, match="task 'x', which has no head"):
        _assembly({"x": TrainableLayer(0, _fitting_layer(rng, 0))})
    with pytest.raises(ShapeError, match="repeat a layer"):
        _assembly({"a": TrainableLayer((1, 1), (_fitting_layer(rng, 1),) * 2)})


# ---------------------------------------------------------------------------
# the same rules through the command line


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("selectors")
    data, ckpts = root / "data.bundle", root / "ckpts"
    assert main(["gen", "--out", str(data), "--tasks", "2", "--classes", "3",
                 "--input-dim", "6", "--samples", "24", "--subspace-dim", "3",
                 "--seed", "3"]) == 0
    assert main(["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "5,4",
                 "--pre-epochs", "1", "--epochs", "1", "--seed", "3"]) == 0
    assert main(["adapt", "--data", str(data), "--ckpt-dir", str(ckpts), "--method", "symerge",
                 "--iterations", "2", "--out-dir", str(root / "adapted")]) == 0
    return root


def _adapt_with(root, capsys, selector) -> tuple:
    config = root / "selector.json"
    config.write_text(json.dumps({"adapt": {"trainable_layer": selector}}))
    out = root / "with_config"
    capsys.readouterr()
    code = main(["adapt", "--data", str(root / "data.bundle"), "--ckpt-dir", str(root / "ckpts"),
                 "--method", "symerge", "--iterations", "2", "--config", str(config),
                 "--out-dir", str(out)])
    return code, capsys.readouterr().err, out


@pytest.mark.parametrize("selector", [True, "x", [0.7, 1.2], 1.9, [], -1])
def test_adapt_config_with_a_bad_selector_exits_2_naming_it(pipeline, capsys, selector):
    code, err, out = _adapt_with(pipeline, capsys, selector)
    assert code == 2 and "config error: adapt.trainable_layer: " in err
    assert not out.exists()


def test_adapt_config_reads_text_selectors_as_the_flag_does(pipeline, capsys):
    code, err, out = _adapt_with(pipeline, capsys, "01")
    assert code == 0, err
    manifest = json.loads((out / "adapt.manifest.json").read_text())
    assert manifest["config"]["adapt"]["trainable_layer"] == 1
    (layer,) = load_trainable(out / "trainable.bundle")["task0"].layers()
    assert layer.weight.shape == (4, 5)  # encoder layer 1 of widths 6, 5, 4


def _eval_layers(root, capsys, trainable: dict) -> tuple:
    layers = root / "layers.bundle"
    save_trainable(trainable, layers)
    capsys.readouterr()
    code = main(["eval", "--data", str(root / "data.bundle"), "--ckpt-dir", str(root / "ckpts"),
                 "--coeffs", str(root / "adapted" / "coeffs.json"), "--layers", str(layers),
                 "--out-dir", str(root / "scored")])
    return code, capsys.readouterr().err


def test_eval_layers_that_do_not_fit_the_model_exit_3(pipeline, capsys):
    rng = np.random.default_rng(3)
    adapted = load_trainable(pipeline / "adapted" / "trainable.bundle")
    head = adapted["task0"].params
    narrow = LayerParams(head.weight[:2], head.bias[:2])
    layer = LayerParams(rng.normal(size=(4, 5)), rng.normal(size=4))
    for trainable, named in [
        ({"task0": TrainableLayer("head", narrow)}, "have shapes [(2, 4)]"),
        ({**adapted, "taskX": adapted["task0"]}, "task 'taskX', which has no head"),
        ({"task0": TrainableLayer((1, 1), (layer, layer))}, "repeat a layer"),
    ]:
        code, err = _eval_layers(pipeline, capsys, trainable)
        assert code == 3 and named in err
        assert not (pipeline / "scored").exists()
    code, err = _eval_layers(pipeline, capsys, adapted)
    assert code == 0, err
