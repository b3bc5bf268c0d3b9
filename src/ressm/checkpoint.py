"""Versioned model container: architecture spec plus named weight arrays.

A plain JSON document with every float written at 17 significant digits,
so save -> load -> forward reproduces outputs bit-exactly and repeated
saves of the same model are byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .network import NetworkSpec, ResampleNetwork, weight_layout
from .serialize import dumps_json

__all__ = ["save_checkpoint", "load_checkpoint", "FORMAT_VERSION"]

FORMAT_VERSION = 1


def _pack_arrays(arrays: dict) -> dict:
    return {
        name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
        for name, arr in arrays.items()
    }


def _unpack_arrays(packed: dict, expected: dict, kind: str) -> dict:
    """Arrays of one section, checked against the names and shapes the
    spec implies; every error names the offending key."""
    missing = sorted(expected.keys() - packed.keys())
    if missing:
        raise ValueError(f"checkpoint {kind} lack {', '.join(map(repr, missing))}")
    unexpected = sorted(packed.keys() - expected.keys())
    if unexpected:
        raise ValueError(f"checkpoint {kind} have unexpected {', '.join(map(repr, unexpected))}")
    out = {}
    for name, shape in expected.items():
        try:
            arr = np.array(packed[name]["data"], dtype=np.float64).reshape(packed[name]["shape"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"checkpoint {kind} entry {name!r} is malformed: {e}") from e
        if arr.shape != shape:
            raise ValueError(f"checkpoint {kind} entry {name!r} has shape {arr.shape}, "
                             f"the spec needs {shape}")
        out[name] = arr
    # One pass over everything; the per-entry search runs only on failure.
    if out and not np.isfinite(np.concatenate([a.reshape(-1) for a in out.values()])).all():
        name = next(k for k, a in out.items() if not np.isfinite(a).all())
        raise ValueError(f"checkpoint {kind} entry {name!r} holds a non-finite value")
    return out


def save_checkpoint(path, model: ResampleNetwork, extra: dict | None = None) -> None:
    """Write the model (and optional metadata) as one JSON document."""
    doc = {
        "format_version": FORMAT_VERSION,
        "spec": model.spec.to_dict(),
        "params": _pack_arrays(model.params),
        "buffers": _pack_arrays(model.buffers),
    }
    if extra:
        doc["extra"] = extra
    with open(path, "w") as f:
        f.write(dumps_json(doc))


def load_checkpoint(path) -> tuple[ResampleNetwork, dict]:
    """Rebuild the model; returns (model, extra metadata).

    Raises ValueError, naming the key, when the document does not match
    its own spec: a weight missing or unexpected, of the wrong shape, or
    not finite.
    """
    with open(path) as f:
        doc = json.load(f)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version {version!r}")
    try:
        spec = NetworkSpec.from_dict(doc["spec"])
    except (KeyError, TypeError) as e:
        raise ValueError(f"checkpoint spec is malformed: {e!r}") from e
    expected = {"param": {}, "buffer": {}}
    for kind, name, shape, _ in weight_layout(spec):
        expected[kind][name] = shape
    model = ResampleNetwork(
        spec,
        params=_unpack_arrays(doc.get("params", {}), expected["param"], "params"),
        buffers=_unpack_arrays(doc.get("buffers", {}), expected["buffer"], "buffers"),
    )
    return model, doc.get("extra", {})
