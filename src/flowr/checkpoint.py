"""Versioned checkpoint files for trained models.

Layout: magic "FLCK", version u32, header-length u32, a JSON header with
scalars and an array manifest, then the arrays as raw little-endian
float64 in manifest order. Raw bytes make the save/load round trip
bit-exact; the JSON carries the experiment-config hash so a load against
a different configuration can warn. A malformed file is refused in one
`path: ...` line, and a save replaces its target whole.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .crp import CrpParams
from .data import replace_file
from .encoder import ClassEmbeddings, Encoder
from .gaussian import NoiseModel
from .meta import MetaParams

_MAGIC = b"FLCK"
_VERSION = 1
_PREFIX = struct.Struct("<4sII")
_HEADER_KEYS = ("setting", "encoder_kind", "a", "rho", "log_lambda0", "noise_variance", "config_hash", "arrays")


@dataclass(frozen=True)
class Checkpoint:
    params: MetaParams
    crp: CrpParams
    noise: NoiseModel
    setting: str
    embeddings: ClassEmbeddings | None = None
    config_hash: str | None = None


def save_checkpoint(path, ckpt: Checkpoint):
    """Write ckpt by data.replace_file, so no reader sees a partly written file."""
    arrays = {"q0": np.asarray(ckpt.params.q0, dtype=np.float64)}
    enc = ckpt.params.encoder
    if enc.kind == "affine":
        arrays["encoder_weight"] = enc.weight
        arrays["encoder_bias"] = enc.bias
    if ckpt.params.class_q is not None:
        arrays["class_q"] = ckpt.params.class_q
        arrays["class_log_lambda"] = ckpt.params.class_log_lambda
    if ckpt.embeddings is not None:
        arrays["embedding_means"] = ckpt.embeddings.means
        arrays["embedding_variances"] = ckpt.embeddings.variances

    header = {
        "setting": ckpt.setting,
        "encoder_kind": enc.kind,
        "a": ckpt.crp.a,
        "rho": ckpt.params.rho,
        "log_lambda0": ckpt.params.log_lambda0,
        "noise_variance": ckpt.noise.noise_variance,
        "config_hash": ckpt.config_hash,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode()
    raw = (np.ascontiguousarray(arr, dtype="<f8") for arr in arrays.values())
    replace_file(path, chain([_PREFIX.pack(_MAGIC, _VERSION, len(blob)), blob], raw))


def _header(path, blob) -> dict:
    """The checkpoint's JSON header, or a one-line ValueError naming path:
    text that is no JSON object, a missing key, a scalar that is not a
    finite number, a setting other than sc or lc, a config hash that is not
    a string, or an array manifest entry that is not [name, shape] with
    non-negative integer dimensions."""
    try:
        header = json.loads(blob)
    except ValueError as e:
        raise ValueError(f"{path}: checkpoint header is not JSON ({e})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"{path}: checkpoint header has no {missing[0]!r}")
    for key in ("a", "rho", "log_lambda0", "noise_variance"):
        if type(header[key]) not in (int, float) or not math.isfinite(header[key]):
            raise ValueError(f"{path}: checkpoint header {key!r} is not a finite number: {header[key]!r}")
    if header["setting"] not in ("sc", "lc"):
        raise ValueError(f"{path}: checkpoint header 'setting' is not 'sc' or 'lc': {header['setting']!r}")
    if not isinstance(header["config_hash"], (str, type(None))):
        raise ValueError(f"{path}: checkpoint header 'config_hash' is not a string: {header['config_hash']!r}")
    if not isinstance(header["arrays"], list):
        raise ValueError(f"{path}: checkpoint header 'arrays' is not a list")
    for i, entry in enumerate(header["arrays"]):
        if not (
            isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str) and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1])
        ):
            raise ValueError(f"{path}: checkpoint array entry {i} is not [name, shape of non-negative integers]")
    return header


def load_checkpoint(path, expected_config_hash=None) -> Checkpoint:
    """Read a checkpoint; a malformed file is refused in one `path: ...` line."""
    with open(path, "rb") as fh:
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise ValueError(f"{path}: checkpoint truncated in section 'prefix'")
        magic, version, header_len = _PREFIX.unpack(prefix)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, not a checkpoint")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version} (expected {_VERSION})")
        blob = fh.read(header_len)
        if len(blob) < header_len:
            raise ValueError(f"{path}: checkpoint truncated in section 'header'")
        header = _header(path, blob)
        arrays = {}
        for name, shape in header["arrays"]:
            n = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * n)
            if len(raw) < 8 * n:
                raise ValueError(f"{path}: checkpoint truncated in section {name!r}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        extra = fh.read(1)
    if extra:
        raise ValueError(f"{path}: trailing garbage after last section")
    need = ["q0"]
    if header["encoder_kind"] == "affine":
        need += ["encoder_weight", "encoder_bias"]
    if "embedding_means" in arrays or "embedding_variances" in arrays:  # both read below; MetaParams pairs class_q
        need += ["embedding_means", "embedding_variances"]
    missing = [name for name in need if name not in arrays]
    if missing:
        raise ValueError(f"{path}: checkpoint has no array {missing[0]!r}")

    if expected_config_hash is not None and header["config_hash"] != expected_config_hash:
        warnings.warn(
            f"{path}: checkpoint config hash {header['config_hash']} does not match "
            f"expected {expected_config_hash}",
            RuntimeWarning,
        )

    try:  # the constructors refuse a value the file holds, such as an unknown encoder kind
        embeddings = None
        if "embedding_means" in arrays:
            embeddings = ClassEmbeddings(means=arrays["embedding_means"], variances=arrays["embedding_variances"])
        return Checkpoint(
            params=MetaParams(
                encoder=Encoder(header["encoder_kind"], arrays.get("encoder_weight"), arrays.get("encoder_bias")),
                q0=arrays["q0"],
                log_lambda0=header["log_lambda0"],
                rho=header["rho"],
                class_q=arrays.get("class_q"),
                class_log_lambda=arrays.get("class_log_lambda"),
            ),
            crp=CrpParams(a=header["a"], rho=header["rho"]),
            noise=NoiseModel(noise_variance=header["noise_variance"]),
            setting=header["setting"],
            embeddings=embeddings,
            config_hash=header["config_hash"],
        )
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
