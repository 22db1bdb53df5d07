"""Dense rank-4 tensor kernels (conv, relu) with hand-derived backward passes,
exact Frobenius accumulation, and the EQT1 binary tensor format.

Shape convention throughout the package: (B, C, H, W), C-order, float32 for
training and float64 for numeric checks.

Convolution is a GEMM over K-major columns: im2col lays the unfolded input
out as (C*p*p, B*H*W), one row per (channel, kernel offset), so building it
copies whole image rows and both the forward and the weight gradient read it
in place. Only the (C_out, B*H*W) GEMM output is transposed back to NCHW.
When the output is narrower than the input, building the columns would cost
more than the GEMM, so the kernel picked by shape instead sums p*p GEMMs over
shifted slices of the zero-padded input laid flat per channel.

Columns: each thread keeps one zeroed im2col buffer per layer, that is per
(input channels, kernel size, dtype), and replaces it when the batch or
image size changes. Every build writes the same cells, so the padding border
stays zero and is never written again. A buffer never leaves this module:
every array a kernel returns is freshly allocated, because tapes and outputs
outlive the next call. The forward and grad_x run a batch whose columns
would exceed _HEAP_BLOCK in consecutive slices of as many images as fit, so
each slice's columns go in the kept buffer. Columns larger than _HEAP_BLOCK
are allocated per call and not kept in two cases: the weight gradient of such
a batch, which sums over the whole batch in one GEMM, and a single image
whose columns alone exceed _HEAP_BLOCK.

Heap: on glibc, importing this module raises malloc's mmap threshold to
_HEAP_BLOCK (16 MiB) and its trim threshold to twice that for the whole
process, so every other large temporary (padded inputs, GEMM outputs,
group-op copies, gradient sums) is reused from the heap instead of being
returned to the kernel and faulted in again on every call. Other C libraries
are left alone.
"""

import ctypes
import io
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

_HEAP_BLOCK = 16 << 20  # largest block the heap keeps, and the largest kept column buffer
_local = threading.local()
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


def _keep_freed_blocks():
    """Have glibc keep freed blocks below _HEAP_BLOCK in the heap; a no-op on any other libc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _HEAP_BLOCK)
    mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_BLOCK)


_keep_freed_blocks()


class EqtFormatError(Exception):
    """Malformed or truncated EQT1 stream."""


def as_tensor4(x, name="x"):
    arr = np.asarray(x)
    if arr.ndim != 4:
        raise ValueError(f"{name} must be rank-4 (B, C, H, W), got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class ConvParams:
    """Weights of one stride-1, same-padded convolution.

    weight: (C_out, C_in, p, p) with p odd; bias: (C_out,).
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w, b = self.weight, self.bias
        if w.ndim != 4:
            raise ValueError(f"weight must be rank-4, got shape {w.shape}")
        if w.shape[2] != w.shape[3]:
            raise ValueError(f"kernel must be square, got {w.shape[2]}x{w.shape[3]}")
        if w.shape[2] % 2 != 1:
            raise ValueError(f"kernel size must be odd, got {w.shape[2]}")
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ValueError(f"bias shape {b.shape} does not match {w.shape[0]} output channels")

    @property
    def out_channels(self):
        return self.weight.shape[0]

    @property
    def in_channels(self):
        return self.weight.shape[1]

    @property
    def kernel_size(self):
        return self.weight.shape[2]


def _kept():
    """This thread's kept im2col column buffers, by (input channels, kernel size, dtype)."""
    return _local.__dict__.setdefault("kept", {})


def _columns(shape, dtype):
    """This thread's zero-initialised (C, p, p, B, H, W) column buffer.

    One buffer is kept per (C, p, dtype); a new shape replaces it if it fits
    in _HEAP_BLOCK bytes, and a larger one gets a fresh buffer on every call.
    Only the weight gradient of a batch whose columns exceed _HEAP_BLOCK, and
    a single image whose columns alone do, ask for a larger one.
    """
    kept = _kept()
    key = (shape[0], shape[1], np.dtype(dtype))
    buf = kept.get(key)
    if buf is None or buf.shape != shape:
        buf = np.zeros(shape, dtype)
        if buf.nbytes <= _HEAP_BLOCK:
            kept[key] = buf
    return buf


def _im2col(x, p):
    """Unfold p x p patches of the zero-padded input, K-major, into a kept buffer.

    Returns (C*p*p, B*H*W): row (c, u, v) is channel c of the padded input
    shifted by (u, v); columns are ordered by (b, i, j). Each shift copies
    the part of x it reads straight into place, in runs of image rows; the
    cells that fall on the padding are never written and stay zero.
    """
    b, c, h, w = x.shape
    r = (p - 1) // 2
    cols = _columns((c, p, p, b, h, w), x.dtype)
    xt = x.transpose(1, 0, 2, 3)
    for u in range(p):
        i0 = max(0, r - u)
        i1 = max(i0, min(h, h + r - u))
        for v in range(p):
            j0 = max(0, r - v)
            j1 = max(j0, min(w, w + r - v))
            cols[:, u, v, :, i0:i1, j0:j1] = xt[:, :, i0 + u - r : i1 + u - r, j0 + v - r : j1 + v - r]
    return cols.reshape(c * p * p, b * h * w)


def _pad_flat(x, p):
    """Zero-pad to same size and lay the images end to end, per channel.

    Returns (flat, n, offsets): flat is (C, n + H'*W') with n = B*H'*W' and
    H' = H+2r, W' = W+2r. For kernel tap (u, v) at offsets[u*p + v],
    flat[:, off : off + n] is the padded input shifted by that tap, read at
    every padded position; the positions with i < H and j < W are the 'same'
    convolution's outputs, and the zero image at the end keeps the last
    image's slices in bounds.
    """
    b, c, h, w = x.shape
    r = (p - 1) // 2
    hp, wp = h + 2 * r, w + 2 * r
    padded = np.zeros((c, b + 1, hp, wp), x.dtype)
    padded[:, :b, r : r + h, r : r + w] = x.transpose(1, 0, 2, 3)
    return padded.reshape(c, -1), b * hp * wp, [u * wp + v for u in range(p) for v in range(p)]


def _correlate(x, w):
    """sum_c x[b,c] * W[o,c] without bias, as an (O, B, H, W) array.

    A narrow output (O < C, such as a network's last layer) sums p*p GEMMs on
    shifted slices of the padded input, which reads far less than building
    the C*p*p columns; otherwise GEMMs run on the K-major columns of
    consecutive slices of as many images as fit in _HEAP_BLOCK bytes of
    columns (at least one), each writing its own columns of the output. The
    BLAS computes an output column the same way whatever the GEMM's number of
    columns, so the bits do not depend on the slicing (the tests check it).
    """
    b, c, h, wd = x.shape
    o, _, p, _ = w.shape
    if o >= c:
        size = max(1, _HEAP_BLOCK // max(1, c * p * p * h * wd * x.dtype.itemsize))
        out = np.empty((o, b * h * wd), np.result_type(w, x))
        for lo in range(0, b, size):
            hi = min(b, lo + size)
            np.matmul(w.reshape(o, -1), _im2col(x[lo:hi], p), out=out[:, lo * h * wd : hi * h * wd])
        return out.reshape(o, b, h, wd)
    flat, n, offsets = _pad_flat(x, p)
    taps = w.reshape(o, c, p * p)
    out = sum(taps[:, :, k] @ flat[:, off : off + n] for k, off in enumerate(offsets))
    return out.reshape(o, b, h + p - 1, wd + p - 1)[:, :, :h, :wd]


def _weight_grad(x, g, p):
    """grad_w[o,c,u,v] = sum over (b, i, j) of g[b,o,i,j] * x[b,c,i+u-r,j+v-r].

    The kernel follows the forward's choice by shape; grad_out is copied to
    channel-major.
    """
    b, c, h, wd = x.shape
    o = g.shape[1]
    if o >= c:
        return (_im2col(x, p) @ g.transpose(1, 0, 2, 3).reshape(o, -1).T).T.reshape(o, c, p, p)
    flat, n, offsets = _pad_flat(x, p)
    g_flat = np.zeros((o, b, h + p - 1, wd + p - 1), g.dtype)
    g_flat[:, :, :h, :wd] = g.transpose(1, 0, 2, 3)
    g_flat = g_flat.reshape(o, n)
    taps = [g_flat @ flat[:, off : off + n].T for off in offsets]
    return np.stack(taps, axis=-1).reshape(o, c, p, p)


def conv2d_forward(x, params):
    """Stride-1 'same' convolution: out[b,o] = sum_c x[b,c] * W[o,c] + bias[o]."""
    x = as_tensor4(x)
    c = x.shape[1]
    if c != params.in_channels:
        raise ValueError(f"input has {c} channels, weights expect {params.in_channels}")
    corr = _correlate(x, params.weight).transpose(1, 0, 2, 3)
    out = np.empty(corr.shape, np.result_type(corr, params.bias))
    return np.add(corr, params.bias[:, None, None], out=out)


def conv2d_backward(x, params, grad_out, need_grad_x=True):
    """Gradients of conv2d_forward w.r.t. input, weight and bias.

    grad_x is a correlation of grad_out with the spatially flipped,
    channel-transposed kernel; grad_w re-reads the input with the kernel the
    forward picks for this shape.
    Returns (grad_x, grad_w, grad_b); grad_x is None when need_grad_x is false.
    """
    x = as_tensor4(x)
    g = as_tensor4(grad_out, "grad_out")
    w = params.weight
    o, _, p, _ = w.shape
    if g.shape != (x.shape[0], o, x.shape[2], x.shape[3]):
        raise ValueError(f"grad_out shape {g.shape} does not match forward output")

    grad_b = g.sum(axis=(0, 2, 3))
    grad_w = _weight_grad(x, g, p)
    if not need_grad_x:
        return None, grad_w, grad_b

    w_flip = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    grad_x = np.ascontiguousarray(_correlate(g, w_flip).transpose(1, 0, 2, 3))
    return grad_x, grad_w, grad_b


def relu_forward(x):
    return np.maximum(x, 0)


def relu_backward(x, grad_out):
    """Pass gradient where x > 0; x is the relu's input or its output, which
    are positive at the same entries.

    ANDs grad_out's bits with an all-ones or all-zeros mask: kept entries pass
    unchanged (NaN and -0 included) and the rest become +0.
    """
    bits = np.dtype(f"u{grad_out.dtype.itemsize}")
    return (grad_out.view(bits) & -(x > 0).astype(bits)).view(grad_out.dtype)


def frobenius_sq(x):
    """Squared Frobenius norm, summed with exact rounding.

    fsum makes the result independent of element order, so permuting entries
    (e.g. by a group action) preserves the value bit-for-bit.
    """
    arr = np.asarray(x, dtype=np.float64)
    return math.fsum(np.square(arr).ravel().tolist())


# --- EQT1 tensor serialization ------------------------------------------------
#
# magic "EQT1" | u8 dtype (0 = f32, 1 = f64) | u8 ndim | ndim x u32 LE dims |
# row-major little-endian scalars.

_EQT1_MAGIC = b"EQT1"
_TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def write_tensor(fp, arr):
    """Append one EQT1 record to a binary stream."""
    arr = np.asarray(arr)
    tag = _DTYPE_TO_TAG.get(arr.dtype.newbyteorder("="))
    if tag is None:
        raise ValueError(f"EQT1 stores float32/float64 only, got {arr.dtype}")
    if arr.ndim > 255:
        raise ValueError("EQT1 rank limit is 255")
    for d in arr.shape:
        if d > 0xFFFFFFFF:
            raise ValueError(f"dimension {d} exceeds u32")
    fp.write(_EQT1_MAGIC)
    fp.write(struct.pack("<BB", tag, arr.ndim))
    fp.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fp.write(np.ascontiguousarray(arr, dtype=_TAG_TO_DTYPE[tag]).tobytes())


def read_tensor(fp):
    """Read one EQT1 record; raises EqtFormatError on any malformation."""
    head = fp.read(6)
    if len(head) < 6:
        raise EqtFormatError("truncated EQT1 header")
    if head[:4] != _EQT1_MAGIC:
        raise EqtFormatError(f"bad magic {head[:4]!r}, expected {_EQT1_MAGIC!r}")
    tag, ndim = head[4], head[5]
    dtype = _TAG_TO_DTYPE.get(tag)
    if dtype is None:
        raise EqtFormatError(f"unknown dtype tag {tag}")
    raw_dims = fp.read(4 * ndim)
    if len(raw_dims) < 4 * ndim:
        raise EqtFormatError("truncated EQT1 dims")
    shape = struct.unpack(f"<{ndim}I", raw_dims)
    count = math.prod(shape)
    pos = fp.tell()
    left = fp.seek(0, io.SEEK_END) - pos
    fp.seek(pos)
    if count * dtype.itemsize > left:  # before read(), which overflows on huge dims
        raise EqtFormatError(f"truncated EQT1 payload, expected {count} scalars, {left} bytes left")
    payload = fp.read(count * dtype.itemsize)
    if len(payload) < count * dtype.itemsize:
        raise EqtFormatError(f"truncated EQT1 payload, expected {count} scalars")
    try:
        arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
    except ValueError as exc:  # an empty payload under more dims, or larger ones, than numpy takes
        raise EqtFormatError(f"EQT1 shape {shape} is not a valid array shape: {exc}") from exc
    return arr.astype(dtype.newbyteorder("="), copy=True)


def save_tensor(path, arr):
    with open(path, "wb") as fp:
        write_tensor(fp, arr)


def load_tensor(path):
    with open(path, "rb") as fp:
        return read_tensor(fp)
