import hashlib
import json
import math

import numpy as np
import pytest

from eqreg import data
from eqreg.tensor import EqtFormatError, write_tensor
from eqreg.data import (
    Dataset,
    NetpbmError,
    ShardError,
    degrade,
    generate_clean,
    load_image,
    make_dataset,
    read_shard,
    render_scene,
    sample_shapes,
    save_image,
    write_shard,
)


class TestScenes:
    def test_clean_batch_shape_and_range(self):
        imgs = generate_clean(0, 12)
        assert imgs.shape == (12, 1, 32, 32) and imgs.dtype == np.float32
        assert imgs.min() >= 0.0 and imgs.max() <= 1.0

    def test_same_seed_same_bits(self):
        assert generate_clean(3, 5).tobytes() == generate_clean(3, 5).tobytes()

    def test_per_image_stream_is_stable_under_count(self):
        # image i depends only on (seed, i), so growing the batch never
        # perturbs earlier images
        few = generate_clean(9, 3)
        many = generate_clean(9, 8)
        np.testing.assert_array_equal(many[:3], few)

    def test_images_are_nonempty_and_distinct(self):
        imgs = generate_clean(1, 6)
        assert all(img.max() > 0 for img in imgs)
        flat = {img.tobytes() for img in imgs}
        assert len(flat) == 6

    def test_custom_size(self):
        imgs = generate_clean(0, 2, size=16)
        assert imgs.shape == (2, 1, 16, 16)

    def test_shape_count_respects_spec(self, monkeypatch):
        monkeypatch.setattr(data, "SHAPE_COUNT", (2, 4))
        for i in range(30):
            shapes = sample_shapes(np.random.default_rng(i))
            assert 2 <= len(shapes) <= 4

    def test_mean_shape_count(self):
        # count ~ uniform{3..6}, so the mean over many scenes sits near 4.5
        counts = [len(sample_shapes(np.random.default_rng(i))) for i in range(10_000)]
        mean = float(np.mean(counts))
        assert abs(mean - 4.5) < 0.05 * 4.5, mean

    def test_bar_angle_spread(self, monkeypatch):
        # angles should cover the circle, not cluster on the axes; a crude
        # chi-square over 8 bins with 400 draws
        monkeypatch.setattr(data, "SHAPE_COUNT", (6, 6))
        angles = []
        i = 0
        while len(angles) < 400:
            for sh in sample_shapes(np.random.default_rng(10_000 + i)):
                if sh["kind"] == "bar":
                    angles.append(sh["angle"] % math.pi)
            i += 1
        counts, _ = np.histogram(angles[:400], bins=8, range=(0.0, math.pi))
        expected = 400 / 8
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 30.0, counts

    def test_render_is_pure(self):
        shapes = sample_shapes(np.random.default_rng(4))
        a = render_scene(shapes)
        b = render_scene(shapes)
        np.testing.assert_array_equal(a, b)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="size"):
            generate_clean(0, 2, size=0)


class TestDegrade:
    def test_noise_statistics(self):
        # a million samples pin the variance within 5%
        clean = np.zeros((1000, 1, 32, 32), dtype=np.float32)
        noisy, mask = degrade(clean, 5, sigma=0.1)
        assert mask is None
        resid = noisy.astype(np.float64) - clean
        assert abs(resid.var() - 0.01) < 0.05 * 0.01
        assert abs(resid.mean()) < 0.001

    def test_sigma_zero_is_identity(self):
        clean = generate_clean(6, 4)
        out, _ = degrade(clean, 6, sigma=0.0)
        np.testing.assert_array_equal(out, clean)

    def test_noise_deterministic(self):
        clean = generate_clean(2, 4)
        a, _ = degrade(clean, 7, sigma=0.1)
        b, _ = degrade(clean, 7, sigma=0.1)
        assert a.tobytes() == b.tobytes()
        c, _ = degrade(clean, 8, sigma=0.1)
        assert a.tobytes() != c.tobytes()

    def test_mask_rate(self):
        clean = np.ones((1000, 1, 32, 32), dtype=np.float32)  # ~1e6 pixels
        _, mask = degrade(clean, 1, sigma=0.0, mask_rate=0.3)
        drop = 1.0 - mask.mean()
        assert abs(drop - 0.3) < 0.01

    def test_mask_zeroes_pixels(self):
        clean = np.ones((2, 1, 16, 16), dtype=np.float32)
        out, mask = degrade(clean, 2, sigma=0.0, mask_rate=0.5)
        np.testing.assert_array_equal(out[mask == 0], 0.0)
        np.testing.assert_array_equal(out[mask == 1], 1.0)

    def test_mask_then_noise_composition(self):
        # holes carry pure noise, survivors carry signal plus noise
        clean = np.ones((2, 1, 16, 16), dtype=np.float32)
        out, mask = degrade(clean, 3, sigma=0.05, mask_rate=0.4)
        assert np.abs(out[mask == 0]).max() < 0.3
        assert out[mask == 1].mean() > 0.9

    def test_degradation_validation(self):
        clean = np.zeros((1, 1, 4, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            degrade(clean, 0, sigma=-0.1)
        with pytest.raises(ValueError):
            degrade(clean, 0, sigma=0.0, mask_rate=1.5)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sigma"):
                degrade(clean, 0, sigma=sigma)


class TestNetpbm:
    def test_pgm_roundtrip_quantization(self, tmp_path):
        img = np.random.default_rng(0).random((1, 1, 9, 7)).astype(np.float32)
        path = tmp_path / "x.pgm"
        save_image(path, img)
        back = load_image(path)
        assert back.shape == img.shape
        # one 8-bit quantization step each way
        assert np.abs(back - img).max() <= 1.0 / 510 + 1e-7

    def test_ppm_roundtrip(self, tmp_path):
        img = np.random.default_rng(1).random((1, 3, 5, 5)).astype(np.float32)
        path = tmp_path / "x.ppm"
        save_image(path, img)
        back = load_image(path)
        assert back.shape == (1, 3, 5, 5)
        assert np.abs(back - img).max() <= 1.0 / 510 + 1e-7

    def test_save_clamps(self, tmp_path):
        img = np.array([[[[-1.0, 2.0]]]], dtype=np.float32)
        path = tmp_path / "c.pgm"
        save_image(path, img)
        back = load_image(path)
        np.testing.assert_array_equal(back[0, 0, 0], [0.0, 1.0])

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# more\n255\n\x00\xff")
        back = load_image(path)
        np.testing.assert_array_equal(back[0, 0, 0], [0.0, 1.0])

    def test_p5_header_layout(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 51, 102, 255]))
        back = load_image(path)
        assert back.shape == (1, 1, 2, 2)
        np.testing.assert_allclose(back[0, 0], [[0, 51 / 255], [102 / 255, 1.0]], atol=1e-7)

    @pytest.mark.parametrize("magic", [b"P4", b"P3"])
    def test_bad_magic(self, tmp_path, magic):
        path = tmp_path / "b.pgm"
        path.write_bytes(magic + b"\n1 1\n255\n0")
        with pytest.raises(NetpbmError, match="magic"):
            load_image(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(NetpbmError, match="maxval"):
            load_image(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(NetpbmError, match="pixel"):
            load_image(path)

    @pytest.mark.parametrize("header", [b"P5 0 1180591620717411303424 255\n", b"P6 4611686018427387904 0 255\n"])
    def test_empty_image_with_huge_side_rejected(self, tmp_path, header):
        p = tmp_path / "huge.pgm"
        p.write_bytes(header)
        with pytest.raises(NetpbmError, match="size"):
            load_image(p)

    def test_header_garbage(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\nxx yy\n255\n\x00")
        with pytest.raises(NetpbmError):
            load_image(path)


class TestDatasets:
    def test_denoise_dataset(self):
        ds = make_dataset("denoise", 6, seed=11, sigma=0.1)
        assert len(ds) == 6 and ds.mask is None
        assert ds.meta["task"] == "denoise" and ds.meta["sigma"] == 0.1
        assert ds.inputs().shape == (6, 1, 32, 32)

    def test_inpaint_dataset_appends_mask_channel(self):
        ds = make_dataset("inpaint", 4, seed=12, sigma=0.05, mask_rate=0.3)
        assert ds.mask is not None
        x = ds.inputs()
        assert x.shape == (4, 2, 32, 32)
        np.testing.assert_array_equal(x[:, 1:], ds.mask)

    def test_unknown_task(self):
        with pytest.raises(ValueError, match="task"):
            make_dataset("deblur", 2, seed=0)

    def test_shard_roundtrip(self, tmp_path):
        ds = make_dataset("inpaint", 5, seed=13)
        write_shard(tmp_path, ds)
        assert (tmp_path / "data.eqt1").exists() and (tmp_path / "meta.json").exists()
        back = read_shard(tmp_path)
        assert back.degraded.tobytes() == ds.degraded.tobytes()
        assert back.clean.tobytes() == ds.clean.tobytes()
        assert back.mask.tobytes() == ds.mask.tobytes()
        assert back.meta["task"] == "inpaint"

    def test_sidecar_is_sorted_json(self, tmp_path):
        ds = make_dataset("denoise", 2, seed=14)
        write_shard(tmp_path, ds)
        raw = (tmp_path / "meta.json").read_text()
        assert json.loads(raw)["format"] == "eqreg-shard-v1"
        keys = list(json.loads(raw).keys())
        assert keys == sorted(keys)

    def test_missing_meta_rejected(self, tmp_path):
        ds = make_dataset("denoise", 2, seed=15)
        write_shard(tmp_path, ds)
        (tmp_path / "meta.json").unlink()
        with pytest.raises((ShardError, OSError)):
            read_shard(tmp_path)

    def test_wrong_format_tag_rejected(self, tmp_path):
        ds = make_dataset("denoise", 2, seed=16)
        write_shard(tmp_path, ds)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["format"] = "something-else"
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ShardError, match="format"):
            read_shard(tmp_path)

    def test_top_level_list_sidecar_rejected(self, tmp_path):
        write_shard(tmp_path, make_dataset("denoise", 2, seed=16))
        (tmp_path / "meta.json").write_text("[1, 2]")
        with pytest.raises(ShardError, match="JSON object"):
            read_shard(tmp_path)

    @pytest.mark.parametrize("raw", [b"\x80{}", b"[" * 100_000 + b"]" * 100_000], ids=["non_ascii", "deep_nesting"])
    def test_unparseable_sidecar_rejected(self, tmp_path, raw):
        write_shard(tmp_path, make_dataset("denoise", 2, seed=16))
        (tmp_path / "meta.json").write_bytes(raw)
        with pytest.raises(ShardError, match="unreadable"):
            read_shard(tmp_path)

    @pytest.mark.parametrize("key, value", [
        ("count", "2"),
        ("count", -1),
        ("count", 2.0),
        ("count", True),
        ("size", None),
        ("channels", -3),
        ("records", "degraded"),
        ("records", ["degraded", "clean", "noise"]),
        ("records", [["degraded"], "clean"]),
    ])
    def test_malformed_sidecar_field_rejected(self, tmp_path, key, value):
        write_shard(tmp_path, make_dataset("denoise", 2, seed=16))
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta[key] = value
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ShardError, match=key):
            read_shard(tmp_path)

    @pytest.mark.parametrize("task", [None, "foo", ["denoise"]])
    def test_sidecar_task_must_be_known(self, tmp_path, task):
        write_shard(tmp_path, make_dataset("denoise", 2, seed=16))
        meta = json.loads((tmp_path / "meta.json").read_text())
        if task is None:
            del meta["task"]
        else:
            meta["task"] = task
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ShardError, match="task"):
            read_shard(tmp_path)

    def test_trailing_records_rejected(self, tmp_path):
        # a sidecar count below the stream's sample count must not truncate silently
        write_shard(tmp_path, make_dataset("denoise", 5, seed=17))
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["count"] = 3
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ShardError, match="more than"):
            read_shard(tmp_path)

    def test_unstackable_records_rejected(self, tmp_path):
        write_shard(tmp_path, make_dataset("denoise", 2, seed=17))
        with open(tmp_path / "data.eqt1", "wb") as fp:
            for side in (32, 32, 16, 16):  # sample 1 is smaller than sample 0
                write_tensor(fp, np.zeros((1, side, side), dtype=np.float32))
        with pytest.raises(ShardError, match="stack"):
            read_shard(tmp_path)

    @pytest.mark.parametrize("size", [10**12, 2**70])
    def test_empty_shard_with_huge_size_rejected(self, tmp_path, size):
        write_shard(tmp_path, make_dataset("denoise", 0, seed=17))
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["size"] = size
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ShardError, match="stack"):
            read_shard(tmp_path)

    @pytest.mark.parametrize("role, value", [("degraded", math.nan), ("clean", math.inf), ("mask", -math.inf)])
    def test_non_finite_record_rejected(self, tmp_path, role, value):
        ds = make_dataset("inpaint", 3, seed=17)
        getattr(ds, role)[1, 0, 2, 5] = value
        write_shard(tmp_path, ds)
        with pytest.raises(ShardError, match="non-finite"):
            read_shard(tmp_path)

    def test_truncated_tensor_stream_rejected(self, tmp_path):
        ds = make_dataset("denoise", 3, seed=17)
        write_shard(tmp_path, ds)
        raw = (tmp_path / "data.eqt1").read_bytes()
        (tmp_path / "data.eqt1").write_bytes(raw[:-40])
        with pytest.raises((ShardError, EqtFormatError)):
            read_shard(tmp_path)

    def test_dataset_seed_reproducible(self):
        a = make_dataset("inpaint", 3, seed=18)
        b = make_dataset("inpaint", 3, seed=18)
        assert a.degraded.tobytes() == b.degraded.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()


# sha256 of data.eqt1 and meta.json for make_dataset(task, 4, seed=9) with the
# default size, sigma and mask rate. A change to the scene draws, the
# degradation stream or the shard layout shows up here first.
PINNED_SHARDS = {
    "denoise": ("04b2657b155c5a513f529a254324cda4a6d86886eda64e6c54426673147192c8",
                "1bf604e51045c6472b9eb8ced0ac28079aa389102a2c0c1f208c4cba9da969ad"),
    "inpaint": ("ece698f05fce4de4bbe6c0e5f1287b7964469ea02f771272888d099876938ddd",
                "168c411cc2ee78d4e85b75e1bebce91a88801eb7ad1c1c8a12320d893cca0a47"),
}


@pytest.mark.parametrize("task", sorted(PINNED_SHARDS))
def test_shard_bytes_pinned(tmp_path, task):
    write_shard(tmp_path, make_dataset(task, 4, seed=9))
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("data.eqt1", "meta.json"))
    assert got == PINNED_SHARDS[task]
