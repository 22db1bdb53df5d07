"""Synthetic restoration data: rendered scenes, degradations, netpbm I/O, shards.

Every random stream is keyed by an integer list fed to default_rng, so the
seed and the other arguments pin each byte of a shard: clean image i uses
[seed, 0, i], the degradation pass uses [seed, 1].
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .tensor import read_tensor, write_tensor


class NetpbmError(Exception):
    """Malformed PGM/PPM stream."""


class ShardError(Exception):
    """Malformed dataset shard or sidecar."""


SHARD_FORMAT = "eqreg-shard-v1"
TASKS = ("denoise", "inpaint")
SHARD_ROLES = ("degraded", "clean", "mask")


# --- scene synthesis ------------------------------------------------------------


# Ranges for the shape compositor; all draws are uniform.
SHAPE_COUNT = (3, 6)  # inclusive
DISC_RADIUS = (2.0, 6.0)
BAR_LENGTH = (6.0, 16.0)
BAR_WIDTH = (1.0, 3.0)
INTENSITY = (0.2, 1.0)


def sample_shapes(rng, size=32):
    """Draw the shape list for one scene; order of draws is part of the format."""
    count = int(rng.integers(SHAPE_COUNT[0], SHAPE_COUNT[1] + 1))
    shapes = []
    for _ in range(count):
        kind = "disc" if rng.integers(0, 2) == 0 else "bar"
        cy = rng.uniform(0, size - 1)
        cx = rng.uniform(0, size - 1)
        if kind == "disc":
            shapes.append({
                "kind": kind, "cy": cy, "cx": cx,
                "radius": rng.uniform(*DISC_RADIUS),
                "value": rng.uniform(*INTENSITY),
            })
        else:
            shapes.append({
                "kind": kind, "cy": cy, "cx": cx,
                "length": rng.uniform(*BAR_LENGTH),
                "width": rng.uniform(*BAR_WIDTH),
                "angle": rng.uniform(0, 2 * np.pi),
                "value": rng.uniform(*INTENSITY),
            })
    return shapes


def render_scene(shapes, size=32):
    """Composite shapes by per-pixel max; returns (1, size, size) float64 in [0, 1]."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.zeros((size, size))
    for s in shapes:
        dy = yy - s["cy"]
        dx = xx - s["cx"]
        if s["kind"] == "disc":
            inside = dy * dy + dx * dx <= s["radius"] ** 2
        else:
            along = dx * np.cos(s["angle"]) + dy * np.sin(s["angle"])
            perp = -dx * np.sin(s["angle"]) + dy * np.cos(s["angle"])
            inside = (np.abs(along) <= s["length"] / 2) & (np.abs(perp) <= s["width"] / 2)
        img = np.maximum(img, np.where(inside, s["value"], 0.0))
    return np.clip(img, 0.0, 1.0)[None]


def generate_clean(seed, count, size=32):
    """(count, 1, size, size) float32 stack of rendered scenes."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    out = np.empty((count, 1, size, size), dtype=np.float32)
    for i in range(count):
        rng = np.random.default_rng([seed, 0, i])
        out[i] = render_scene(sample_shapes(rng, size), size).astype(np.float32)
    return out


# --- degradations ---------------------------------------------------------------


def degrade(clean, seed, sigma, mask_rate=None):
    """Noise a clean stack, first masking pixels when mask_rate is given.

    Returns (degraded, mask or None); a masked pixel is dropped with
    probability mask_rate (mask value 0). The mask draw precedes the noise
    draw, which fixes the stream layout.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if mask_rate is not None and not 0 <= mask_rate <= 1:
        raise ValueError(f"mask_rate must be in [0, 1], got {mask_rate}")
    rng = np.random.default_rng([seed, 1])
    clean = np.asarray(clean)
    mask = None if mask_rate is None else (rng.random(clean.shape) >= mask_rate).astype(clean.dtype)
    noise = rng.normal(0.0, sigma, size=clean.shape)
    signal = clean if mask is None else mask * clean
    return (signal + noise).astype(clean.dtype), mask


# --- PGM (P5) / PPM (P6) --------------------------------------------------------


def _parse_header_ints(buf, start, want):
    """Scan `want` ASCII integers after position start, honoring # comments.

    Returns (values, offset of first data byte).
    """
    vals = []
    i = start
    n = len(buf)
    while len(vals) < want:
        while i < n and buf[i : i + 1].isspace():
            i += 1
        if i < n and buf[i] == ord("#"):
            while i < n and buf[i] != ord("\n"):
                i += 1
            continue
        j = i
        while j < n and not buf[j : j + 1].isspace():
            j += 1
        if j == i:
            raise NetpbmError("truncated netpbm header")
        token = buf[i:j]
        if not token.isdigit():
            raise NetpbmError(f"expected integer in header, got {token!r}")
        vals.append(int(token))
        i = j
    if i >= n:
        raise NetpbmError("missing whitespace after netpbm header")
    return vals, i + 1  # single whitespace byte separates header from data


def load_image(path):
    """Read a binary PGM/PPM with maxval 255 into a (1, C, H, W) float32 in [0, 1]."""
    with open(path, "rb") as fp:
        buf = fp.read()
    magic = buf[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise NetpbmError(f"unsupported magic {magic!r}, expected P5 or P6")
    (w, h, maxval), off = _parse_header_ints(buf, 2, 3)
    if maxval != 255:
        raise NetpbmError(f"only maxval 255 is supported, got {maxval}")
    need = w * h * channels
    data = buf[off : off + need]
    if len(data) < need:
        raise NetpbmError(f"expected {need} pixel bytes, got {len(data)}")
    try:
        img = np.frombuffer(data, dtype=np.uint8).reshape(h, w, channels)
    except ValueError as exc:  # an empty image whose other side numpy cannot hold
        raise NetpbmError(f"{w}x{h} is not a valid image size: {exc}") from exc
    return (img.transpose(2, 0, 1)[None].astype(np.float32)) / 255.0


def save_image(path, img):
    """Write (C, H, W) or (1, C, H, W) floats as P5/P6, maxval 255.

    Values are clamped to [0, 1] and rounded half away from zero.
    """
    img = np.asarray(img)
    if img.ndim == 4:
        if img.shape[0] != 1:
            raise ValueError(f"can only save a single image, got batch {img.shape[0]}")
        img = img[0]
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise ValueError(f"expected (C, H, W) with C in (1, 3), got shape {img.shape}")
    c, h, w = img.shape
    quant = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as fp:
        fp.write(b"P5\n" if c == 1 else b"P6\n")
        fp.write(f"{w} {h}\n255\n".encode("ascii"))
        fp.write(np.ascontiguousarray(quant.transpose(1, 2, 0)).tobytes())


# --- shards ---------------------------------------------------------------------


@dataclass
class Dataset:
    """In-memory shard: stacked tensors plus the sidecar metadata."""

    degraded: np.ndarray
    clean: np.ndarray
    mask: np.ndarray | None
    meta: dict

    def __len__(self):
        return self.degraded.shape[0]

    def inputs(self):
        """Network input stack; the mask rides along as an extra channel."""
        if self.mask is None:
            return self.degraded
        return np.concatenate([self.degraded, self.mask], axis=1)


def make_dataset(task, count, seed, size=32, sigma=0.1, mask_rate=0.3):
    """Render, degrade and wrap a shard for the given task."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    rate = mask_rate if task == "inpaint" else None
    clean = generate_clean(seed, count, size)
    degraded, mask = degrade(clean, seed, sigma, rate)
    records = ["degraded", "clean"] + (["mask"] if mask is not None else [])
    meta = {
        "format": SHARD_FORMAT,
        "task": task,
        "count": count,
        "channels": 1,
        "size": size,
        "seed": seed,
        "sigma": sigma,
        "mask_rate": rate,
        "records": records,
        "scene": {
            "size": size, "shapes_min": SHAPE_COUNT[0], "shapes_max": SHAPE_COUNT[1],
            "disc_radius": DISC_RADIUS, "bar_length": BAR_LENGTH, "bar_width": BAR_WIDTH, "intensity": INTENSITY,
        },
    }
    return Dataset(degraded, clean, mask, meta)


def write_shard(outdir, dataset):
    """data.eqt1 holds per-sample records in sidecar order; meta.json is sorted."""
    os.makedirs(outdir, exist_ok=True)
    arrays = {"degraded": dataset.degraded, "clean": dataset.clean, "mask": dataset.mask}
    roles = dataset.meta["records"]
    with open(os.path.join(outdir, "data.eqt1"), "wb") as fp:
        for i in range(len(dataset)):
            for role in roles:
                write_tensor(fp, arrays[role][i])
    with open(os.path.join(outdir, "meta.json"), "w", encoding="ascii") as fp:
        json.dump(dataset.meta, fp, sort_keys=True, indent=2)
        fp.write("\n")


def read_shard(indir):
    meta_path = os.path.join(indir, "meta.json")
    try:
        with open(meta_path, "r", encoding="ascii") as fp:
            meta = json.load(fp)
    except (ValueError, RecursionError) as exc:  # not ASCII, not JSON, or nested too deep
        raise ShardError(f"unreadable sidecar {meta_path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise ShardError(f"sidecar {meta_path} is not a JSON object")
    if meta.get("format") != SHARD_FORMAT:
        raise ShardError(f"unsupported shard format {meta.get('format')!r}")
    if meta.get("task") not in TASKS:
        raise ShardError(f"sidecar task must be one of {TASKS}, got {meta.get('task')!r}")
    try:
        roles = meta["records"]
        count = meta["count"]
        size = meta["size"]
        channels = meta["channels"]
    except KeyError as exc:
        raise ShardError(f"sidecar {meta_path} is missing key {exc}") from exc
    for key, val in (("count", count), ("size", size), ("channels", channels)):
        if type(val) is not int or val < 0:
            raise ShardError(f"sidecar {key} must be a non-negative integer, got {val!r}")
    if not isinstance(roles, list) or not all(role in SHARD_ROLES for role in roles):
        raise ShardError(f"sidecar records must be a list of {SHARD_ROLES}, got {roles!r}")
    if "degraded" not in roles or "clean" not in roles:
        raise ShardError(f"shard records {roles} lack degraded/clean")
    stacks = {role: [] for role in roles}
    with open(os.path.join(indir, "data.eqt1"), "rb") as fp:
        for _ in range(count):
            for role in roles:
                stacks[role].append(read_tensor(fp))
        if fp.read(1):
            raise ShardError(f"data.eqt1 holds more than the sidecar's {count} samples")
    shape = (count, channels, size, size)
    out = {}
    for role in roles:
        try:
            arr = np.stack(stacks[role]) if count else np.zeros(shape, dtype=np.float32)
        except ValueError as exc:  # records of differing shapes, or a shape numpy cannot build
            raise ShardError(f"{role} records do not stack to the sidecar's {shape}: {exc}") from exc
        if arr.shape != shape:
            raise ShardError(f"{role} stack shape {arr.shape} does not match sidecar {shape}")
        if not np.isfinite(arr).all():
            raise ShardError(f"{role} records hold a non-finite value")
        out[role] = arr
    return Dataset(out["degraded"], out["clean"], out.get("mask"), meta)
