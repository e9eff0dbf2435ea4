"""On-disk formats: a small binary array container plus JSON sidecars.

Bundle layout (little-endian throughout):

    8 bytes   magic  b"MLBUNDLE"
    u32       format version (currently 1)
    u32       header length in bytes
    header    canonical UTF-8 JSON: {"meta": {...}, "arrays": [{name, dtype, shape}...]}
    payload   raw row-major array bytes, in header order (names sorted)

Saving the same object twice produces byte-identical files: the header JSON
is canonical (sorted keys, fixed separators) and arrays are ordered by name.
Configs, coefficient matrices and manifests are plain JSON; float64 values
survive the JSON round trip exactly because Python prints shortest
round-trip representations.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict
from typing import Mapping

import numpy as np

from .engine import LayerParams, ParamSet, ShapeError
from .merging import CoefficientMatrix, TrainableLayer, read_selector
from .suites import SPLITS, TASK_KINDS, SuiteConfig, TaskData, TaskSuite

MAGIC = b"MLBUNDLE"
BUNDLE_VERSION = 1
MANIFEST_VERSION = 1

_DTYPES = {"float64": "<f8", "int64": "<i8"}


class BundleError(ValueError):
    """Corrupt, truncated or incompatible bundle file."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def save_bundle(path, meta: Mapping, arrays: Mapping[str, np.ndarray]) -> None:
    entries = []
    payload = []
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        if a.dtype == np.float64:
            dtype = "float64"
        elif a.dtype == np.int64:
            dtype = "int64"
        else:
            raise BundleError(f"{path}: unsupported dtype {a.dtype} for array '{name}'")
        entries.append({"name": name, "dtype": dtype, "shape": list(a.shape)})
        payload.append(a.astype(_DTYPES[dtype]).tobytes(order="C"))
    header = canonical_json({"meta": dict(meta), "arrays": entries}).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", BUNDLE_VERSION, len(header)))
        f.write(header)
        for chunk in payload:
            f.write(chunk)


def load_bundle(path):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise BundleError(f"{path}: not a bundle file (bad magic)")
    if len(blob) < 16:
        raise BundleError(f"{path}: truncated header")
    version, header_len = struct.unpack("<II", blob[8:16])
    if version != BUNDLE_VERSION:
        raise BundleError(f"{path}: unsupported bundle version {version}")
    if len(blob) < 16 + header_len:
        raise BundleError(f"{path}: truncated header")
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise BundleError(f"{path}: header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise BundleError(f"{path}: header is {type(header).__name__}, not an object")
    if not isinstance(header.get("meta"), dict):
        raise BundleError(f"{path}: header field 'meta' is not an object")
    if not isinstance(header.get("arrays"), list):
        raise BundleError(f"{path}: header field 'arrays' is not a list")
    arrays = {}
    offset = 16 + header_len
    for i, entry in enumerate(header["arrays"]):
        _check_entry(path, i, entry)
        shape = tuple(entry["shape"])
        dtype = np.dtype(_DTYPES[entry["dtype"]])
        nbytes = math.prod(shape) * dtype.itemsize
        if offset + nbytes > len(blob):
            raise BundleError(f"{path}: truncated payload for array '{entry['name']}'")
        try:
            a = np.frombuffer(blob[offset:offset + nbytes], dtype=dtype).reshape(shape)
        except ValueError as exc:  # more, or larger, dimensions than numpy allows
            raise BundleError(f"{path}: arrays[{i}].shape: {exc}") from exc
        arrays[entry["name"]] = a.astype(entry["dtype"])
        offset += nbytes
    if offset != len(blob):
        raise BundleError(f"{path}: {len(blob) - offset} trailing bytes")
    return header["meta"], arrays


def _check_entry(path, i: int, entry) -> None:
    where = f"{path}: arrays[{i}]"
    if not isinstance(entry, dict):
        raise BundleError(f"{where} is not an object")
    for key in ("name", "dtype", "shape"):
        if key not in entry:
            raise BundleError(f"{where}: missing key '{key}'")
    if not isinstance(entry["name"], str):
        raise BundleError(f"{where}.name: not a string")
    if not isinstance(entry["dtype"], str) or entry["dtype"] not in _DTYPES:
        raise BundleError(f"{where}.dtype: unknown dtype {entry['dtype']!r}")
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise BundleError(f"{where}.shape: {shape!r} is not a list of non-negative integers")


# ---------------------------------------------------------------------------
# Checkpoints (ParamSet)


def save_checkpoint(params: ParamSet, path) -> None:
    meta = {
        "format": "paramset",
        "encoder": [[l.out_dim, l.in_dim] for l in params.encoder],
        "heads": {t: [h.out_dim, h.in_dim] for t, h in params.heads.items()},
    }
    save_bundle(path, meta, _layer_arrays([*((f"enc{i}", l) for i, l in enumerate(params.encoder)),
                                           *((f"head.{t}", h) for t, h in params.heads.items())]))


def load_checkpoint(path) -> ParamSet:
    meta, arrays = load_bundle(path)
    if meta.get("format") != "paramset":
        raise BundleError(f"{path}: not a parameter checkpoint")
    encoder = [_layer(path, arrays, f"enc{i}", pair, f"encoder[{i}]")
               for i, pair in enumerate(_meta_field(path, meta, "encoder", list))]
    heads = {task: _layer(path, arrays, f"head.{task}", pair, f"heads.{task}")
             for task, pair in _meta_field(path, meta, "heads", dict).items()}
    _check_claimed(path, arrays)
    try:
        return ParamSet(encoder=tuple(encoder), heads=heads)
    except ShapeError as exc:
        raise BundleError(f"{path}: inconsistent shapes: {exc}") from exc


def _meta_field(path, meta: Mapping, key: str, kind: type):
    value = meta.get(key)
    if not isinstance(value, kind):
        raise BundleError(
            f"{path}: meta field '{key}' is {type(value).__name__}, not {kind.__name__}")
    return value


def _array(path, arrays: dict, name: str) -> np.ndarray:
    """The array `name`, claimed: taken out of `arrays`, so that what is left
    there at the end is what no meta field names (`_check_claimed`)."""
    try:
        return arrays.pop(name)
    except KeyError:
        raise BundleError(f"{path}: missing array '{name}'") from None


def _check_claimed(path, unclaimed) -> None:
    """BundleError naming the first of the array names `unclaimed`, if any."""
    if unclaimed:
        raise BundleError(f"{path}: array '{min(unclaimed)}' is named by no meta field")


def _layer_arrays(layers) -> dict:
    """The arrays `<prefix>.w` / `<prefix>.b` of the (prefix, layer) pairs `layers`."""
    return {f"{prefix}.{k}": a for prefix, layer in layers
            for k, a in (("w", layer.weight), ("b", layer.bias))}


def _read_layer(path, arrays: dict, prefix: str) -> LayerParams:
    """The layer stored as `<prefix>.w` / `<prefix>.b`, both arrays claimed."""
    w, b = _array(path, arrays, f"{prefix}.w"), _array(path, arrays, f"{prefix}.b")
    try:
        return LayerParams(w, b)
    except ValueError as exc:  # a malformed or non-finite layer
        raise BundleError(f"{path}: arrays '{prefix}.w' and '{prefix}.b': {exc}") from exc


def _layer(path, arrays: dict, prefix: str, pair, where: str) -> LayerParams:
    """`_read_layer`'s layer, checked against the [out_dim, in_dim] pair the
    meta field `where` declares for it."""
    if not (isinstance(pair, list) and len(pair) == 2
            and all(type(d) is int and d >= 0 for d in pair)):
        raise BundleError(f"{path}: meta field '{where}' is {pair!r}, not an [out_dim, in_dim] pair")
    layer = _read_layer(path, arrays, prefix)
    if layer.weight.shape != tuple(pair):  # the bias has the weight's rows
        raise BundleError(f"{path}: meta field '{where}' does not match the shapes of its arrays")
    return layer


# ---------------------------------------------------------------------------
# Task suites


def save_suite(suite: TaskSuite, path) -> None:
    meta = {
        "format": "suite",
        "config": asdict(suite.config),
        "tasks": [{"id": t.task_id, "kind": t.kind} for t in suite.tasks],
    }
    save_bundle(path, meta, {f"{t.task_id}.{name}": getattr(t, name)
                             for t in suite.tasks for name in SPLITS})


def load_suite(path) -> TaskSuite:
    meta, arrays = load_bundle(path)
    if meta.get("format") != "suite":
        raise BundleError(f"{path}: not a suite file")
    try:
        cfg = SuiteConfig(**_meta_field(path, meta, "config", dict))
    except (TypeError, ValueError) as exc:
        raise BundleError(f"{path}: meta field 'config': {exc}") from exc
    tasks = []
    for i, entry in enumerate(_meta_field(path, meta, "tasks", list)):
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str)
                and entry.get("kind") in TASK_KINDS):
            raise BundleError(f"{path}: meta field 'tasks[{i}]' is {entry!r}, not "
                              f"{{'id': <string>, 'kind': {' | '.join(map(repr, TASK_KINDS))}}}")
        tid = entry["id"]
        tasks.append(TaskData(tid, entry["kind"],
                              **{name: _array(path, arrays, f"{tid}.{name}") for name in SPLITS}))
    _check_claimed(path, arrays)
    try:
        return TaskSuite(config=cfg, tasks=tasks)
    except ValueError as exc:  # the suite contract
        raise BundleError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Coefficient matrices (JSON) and trainable layers (bundle)


def save_coeffs(coeffs: CoefficientMatrix, path) -> None:
    doc = {
        "format": "coeffs",
        "task_ids": list(coeffs.task_ids),
        "num_layers": coeffs.num_layers,
        "values": [[float(v) for v in row] for row in coeffs.values],
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(canonical_json(doc))


def _read_json(path):
    """The JSON value in the file `path`; BundleError naming it if there is none."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise BundleError(f"{path}: not valid JSON ({exc})") from exc


def load_coeffs(path) -> CoefficientMatrix:
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != "coeffs":
        raise BundleError(f"{path}: not a coefficient file")
    if not isinstance(doc.get("task_ids"), list):
        raise BundleError(f"{path}: field 'task_ids' is not a list")
    num_layers, rows = doc.get("num_layers"), doc.get("values")
    if not isinstance(num_layers, int) or isinstance(num_layers, bool):
        raise BundleError(f"{path}: field 'num_layers' is {num_layers!r}, not an integer")
    if not (isinstance(rows, list) and all(isinstance(r, list) and len(r) == num_layers
                                           and all(_is_real(v) for v in r) for r in rows)):
        raise BundleError(f"{path}: field 'values' is not a list of rows of {num_layers} numbers")
    try:
        return CoefficientMatrix(tuple(doc["task_ids"]), np.array(rows, dtype=np.float64))
    except ValueError as exc:
        raise BundleError(f"{path}: field 'values': {exc}") from exc


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def save_trainable(trainable: Mapping[str, TrainableLayer], path) -> None:
    # a tuple selector is written as a JSON list
    meta = {"format": "trainable", "selectors": {t: tr.selector for t, tr in trainable.items()}}
    save_bundle(path, meta, _layer_arrays((f"{t}.{pos}", layer) for t, tr in trainable.items()
                                          for pos, layer in enumerate(tr.layers())))


def load_trainable(path) -> dict:
    meta, arrays = load_bundle(path)
    if meta.get("format") != "trainable":
        raise BundleError(f"{path}: not a trainable-layer file")
    out = {}
    for task, sel in _meta_field(path, meta, "selectors", dict).items():
        try:
            selector = read_selector(sel)
        except ValueError:
            raise BundleError(f"{path}: meta field 'selectors.{task}' is {sel!r}, not "
                              "'head', a layer index or a list of them") from None
        if selector is None:  # the task has no trained layer
            continue
        out[task] = TrainableLayer.build(selector,
                                         lambda p: _read_layer(path, arrays, f"{task}.{p}"))
    # a selector claims only the `<task>.<i>.<w|b>` arrays of the layers it reads
    _check_claimed(path, arrays)
    return out


# ---------------------------------------------------------------------------
# Run manifests


def manifest_hash(payload: Mapping) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def write_manifest(path, command: str, config: Mapping, seed: int) -> str:
    """Write the manifest of one run (its command, semantic config, seed and
    the format versions, stamped with their hash) and return the hash."""
    from . import __version__
    doc = {"command": command, "config": dict(config), "seed": int(seed),
           "versions": {"package": __version__, "bundle_format": BUNDLE_VERSION,
                        "manifest_format": MANIFEST_VERSION}}
    digest = manifest_hash(doc)
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(dict(doc, manifest_hash=digest), sort_keys=True, indent=2,
                           ensure_ascii=False))
        f.write("\n")
    return digest


def read_manifest(path) -> dict:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise BundleError(f"{path}: holds a JSON {type(doc).__name__}, not a manifest object")
    body = {k: v for k, v in doc.items() if k != "manifest_hash"}
    if manifest_hash(body) != doc.get("manifest_hash"):
        raise BundleError(f"{path}: manifest hash does not match its contents")
    return doc
