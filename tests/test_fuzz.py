"""Property tests for the four parsers: any input gives a result or the parser's typed error.

Examples and deadlines are bounded so the module stays within seconds.
"""

import io
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from eqreg.data import NetpbmError, ShardError, load_image, make_dataset, read_shard, write_shard  # noqa: E402
from eqreg.model import Network, load_checkpoint  # noqa: E402
from eqreg.tensor import EqtFormatError, read_tensor, write_tensor  # noqa: E402

FUZZ = settings(max_examples=150, deadline=500, database=None, suppress_health_check=[HealthCheck.too_slow])

@st.composite
def eqt1_records(draw):
    """Random bytes, or an EQT1 header with random dims and a payload of random length."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    dim = st.one_of(st.integers(0, 3), st.integers(0, 0xFFFFFFFF))
    dims = draw(st.lists(dim, max_size=draw(st.sampled_from([4, 40, 255]))))
    head = b"EQT1" + bytes([draw(st.integers(0, 2)), len(dims)]) + struct.pack(f"<{len(dims)}I", *dims)
    return head + draw(st.binary(max_size=48))


@FUZZ
@given(eqt1_records())
def test_read_tensor_any_bytes(raw):
    try:
        arr = read_tensor(io.BytesIO(raw))
    except EqtFormatError:
        return
    assert isinstance(arr, np.ndarray) and arr.dtype in (np.float32, np.float64)


layer_tokens = st.one_of(
    st.sampled_from(["relu", "conv:1:8:3", "conv:8:8:3", "conv:8:1:3", "conv:1:1:1", "conv:1:1:2", "pool"]),
    st.builds("conv:{}:{}:{}".format, st.integers(-1, 9), st.integers(-1, 9), st.integers(-1, 4)),
    st.text(max_size=12),
)
descriptors = st.one_of(
    st.builds(
        "eqnet1 order={} n_hidden={} residual={} layers={}".format,
        st.integers(-1, 9), st.integers(-1, 3), st.integers(-1, 2),
        st.lists(layer_tokens, max_size=5).map(",".join),
    ),
    st.text(max_size=80),
)


@st.composite
def checkpoints(draw):
    """A length-prefixed descriptor followed by EQT1 records, or random bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=96))
    desc = draw(descriptors).encode("utf-8")
    buf = io.BytesIO()
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.lists(st.integers(0, 8), min_size=1, max_size=4))
        write_tensor(buf, np.zeros(shape, dtype=draw(st.sampled_from([np.float32, np.float64]))))
    tail = buf.getvalue()
    cut = draw(st.integers(0, len(tail)))
    return struct.pack("<I", len(desc)) + desc + tail[:cut]


@FUZZ
@given(checkpoints())
def test_load_checkpoint_any_bytes(raw):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "net.eqnet"
        path.write_bytes(raw)
        try:
            net = load_checkpoint(path)
        except EqtFormatError:
            return
    assert isinstance(net, Network)


@pytest.fixture(scope="module")
def shard_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_shard")
    write_shard(d, make_dataset("inpaint", 2, 5, sigma=0.1))
    return json.loads((d / "meta.json").read_text()), (d / "data.eqt1").read_bytes()


def _read_shard_bytes(meta_bytes, data_bytes):
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "meta.json").write_bytes(meta_bytes)
        (Path(d) / "data.eqt1").write_bytes(data_bytes)
        try:
            ds = read_shard(d)
        except (ShardError, EqtFormatError):
            return
    assert len(ds) == ds.meta["count"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 2**70) | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
sidecar_keys = st.sampled_from(["format", "task", "count", "size", "channels", "records"])


@FUZZ
@given(data=st.data())
def test_read_shard_any_stream(shard_files, data):
    meta, stream = shard_files
    choice = data.draw(st.integers(0, 2))
    if choice == 0:
        raw = data.draw(st.binary(max_size=128))
    elif choice == 1:  # well-formed records of random shapes
        buf = io.BytesIO()
        for shape in data.draw(st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=8)):
            write_tensor(buf, np.zeros(shape, dtype=np.float32))
        raw = buf.getvalue()
    else:  # the real stream with bytes flipped and the end cut
        raw = bytearray(stream)
        for pos in data.draw(st.lists(st.integers(0, len(raw) - 1), max_size=4)):
            raw[pos] ^= 0xFF
        raw = bytes(raw[: data.draw(st.integers(0, len(raw)))])
    _read_shard_bytes(json.dumps(meta).encode("ascii"), raw)


@FUZZ
@given(data=st.data())
def test_read_shard_any_sidecar(shard_files, data):
    meta, stream = shard_files
    choice = data.draw(st.integers(0, 2))
    if choice == 0:
        raw = data.draw(st.binary(max_size=128))
    elif choice == 1:
        raw = json.dumps(data.draw(json_values)).encode("utf-8")
    else:  # the real sidecar with some keys replaced or removed
        edited = dict(meta)
        for key, value in data.draw(st.dictionaries(sidecar_keys, st.none() | json_values, max_size=3)).items():
            if value is None:
                edited.pop(key, None)
            else:
                edited[key] = value
        raw = json.dumps(edited).encode("utf-8")
    _read_shard_bytes(raw, stream)


@st.composite
def netpbm_files(draw):
    """A P5/P6 header with random fields and a payload of random length, or random bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    magic = draw(st.sampled_from([b"P5", b"P6", b"P4", b"P7"]))
    field = st.one_of(st.integers(0, 6), st.integers(0, 2**80), st.just(255))
    fields = draw(st.one_of(st.lists(field, max_size=4), st.tuples(field, field, st.just(255))))
    sep = draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# note\n"]))
    header = magic + b"".join(sep + str(f).encode("ascii") for f in fields) + draw(st.sampled_from([b"", b"\n"]))
    return header + draw(st.binary(max_size=120))


@FUZZ
@given(netpbm_files())
def test_load_image_any_bytes(raw):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "img.pgm"
        path.write_bytes(raw)
        try:
            img = load_image(path)
        except NetpbmError:
            return
    assert img.ndim == 4 and img.shape[:2] in ((1, 1), (1, 3)) and img.dtype == np.float32
