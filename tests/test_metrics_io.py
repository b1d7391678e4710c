import math

import numpy as np
import pytest

from tlf.config import ExperimentConfig, parse_number, read_config_file
from tlf.errors import ConfigError, FormatError, ShapeError, ValidationError
from tlf.formats import (
    read_image,
    read_kernel,
    read_mask,
    read_tlft,
    write_image,
    write_kernel,
    write_mask,
    write_tlft,
)
from tlf.metrics import psnr, ssim
from tlf.noise import add_gaussian_noise, gaussian_field
from tlf.tensor import BlurKernel, ImageTensor

from conftest import random_image


def naive_psnr(a, b):
    total = 0.0
    n = 0
    for x, y in zip(a.data.ravel(), b.data.ravel()):
        total += (x - y) ** 2
        n += 1
    mse = total / n
    if mse == 0:
        return 100.0
    return min(10.0 * math.log10(1.0 / mse), 100.0)


def naive_ssim(a, b):
    """Scalar reference SSIM: 11x11 Gaussian window, sigma 1.5, valid mode."""
    x = a.data.mean(axis=0)
    y = b.data.mean(axis=0)
    size, sigma = 11, 1.5
    w = np.empty((size, size))
    for i in range(size):
        for j in range(size):
            w[i, j] = math.exp(-((i - 5) ** 2 + (j - 5) ** 2) / (2 * sigma * sigma))
    w /= w.sum()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    h, wd = x.shape
    vals = []
    for i in range(h - size + 1):
        for j in range(wd - size + 1):
            px = x[i : i + size, j : j + size]
            py = y[i : i + size, j : j + size]
            mx = (w * px).sum()
            my = (w * py).sum()
            vx = (w * px * px).sum() - mx * mx
            vy = (w * py * py).sum() - my * my
            cxy = (w * px * py).sum() - mx * my
            vals.append(
                ((2 * mx * my + c1) * (2 * cxy + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(vals))


class TestPsnr:
    def test_identical_capped(self, rng):
        x = random_image(rng)
        assert psnr(x, x) == 100.0

    def test_constant_offset(self):
        a = ImageTensor.full(8, 8, 0.5)
        b = ImageTensor.full(8, 8, 0.6)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_matches_naive(self, rng):
        a = random_image(rng)
        b = random_image(rng)
        assert psnr(a, b) == pytest.approx(naive_psnr(a, b), abs=1e-9)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            psnr(random_image(rng, 8, 8), random_image(rng, 16, 16))

    def test_masked_region(self, rng):
        a = random_image(rng, 8, 8)
        b = ImageTensor(a.data.copy())
        sel = np.zeros((1, 8, 8), dtype=bool)
        sel[0, :4] = True
        changed = a.data.copy()
        changed[0, :4] += 0.1
        assert psnr(ImageTensor(changed), b, mask=~sel) == 100.0
        assert psnr(ImageTensor(changed), b, mask=sel) == pytest.approx(20.0, abs=1e-9)


class TestSsim:
    def test_identical_is_one(self, rng):
        x = random_image(rng, 16, 16)
        assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_negative_image_scores_low(self):
        from tlf.fixtures import synthetic_scene

        x = synthetic_scene(32)
        assert ssim(x, ImageTensor(1.0 - x.data)) < 0.5

    def test_matches_naive_constant_shift(self, rng):
        a = random_image(rng, 16, 16)
        b = ImageTensor(np.clip(a.data + 0.5, 0, 2))
        assert ssim(a, b) == pytest.approx(naive_ssim(a, b), abs=1e-9)

    def test_matches_naive_random(self, rng):
        a = random_image(rng, 14, 17)
        b = random_image(rng, 14, 17)
        assert ssim(a, b) == pytest.approx(naive_ssim(a, b), abs=1e-9)

    def test_too_small_rejected(self, rng):
        with pytest.raises(ValidationError):
            ssim(random_image(rng, 8, 8), random_image(rng, 8, 8))


class TestFormats:
    def test_pgm_roundtrip(self, tmp_path, rng):
        img = ImageTensor(np.round(rng.uniform(size=(1, 9, 7)) * 255) / 255.0)
        path = tmp_path / "img.pgm"
        write_image(path, img)
        back = read_image(path)
        assert back.shape == img.shape
        assert np.abs(back.data - img.data).max() <= 1e-12

    def test_ppm_roundtrip(self, tmp_path, rng):
        img = ImageTensor(np.round(rng.uniform(size=(3, 5, 6)) * 255) / 255.0)
        path = tmp_path / "img.ppm"
        write_image(path, img)
        back = read_image(path)
        assert np.abs(back.data - img.data).max() <= 1e-12

    def test_pgm_comment_and_whitespace(self, tmp_path):
        payload = bytes(range(6))
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
        img = read_image(path)
        assert img.shape == (1, 2, 3)

    def test_tlft_bit_identical(self, tmp_path, rng):
        img = random_image(rng, 6, 5, c=3)
        path = tmp_path / "img.tlft"
        write_tlft(path, img)
        back = read_tlft(path)
        assert np.array_equal(back.data, img.data)
        assert read_image(path).data.tobytes() == img.data.tobytes()

    def test_truncated_tlft(self, tmp_path, rng):
        img = random_image(rng, 6, 5)
        path = tmp_path / "img.tlft"
        write_tlft(path, img)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            read_tlft(path)

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        bad_headers = (
            b"JUNKJUNKJUNK",
            b"P5\nabc 4\n255\n" + bytes(16),
            b"P5\n-1 -1\n255\n" + bytes(1),
            b"P5\n0 4\n255\n",
        )
        for raw in bad_headers:
            path.write_bytes(raw)
            with pytest.raises(FormatError):
                read_image(path)

    def test_kernel_roundtrip(self, tmp_path, rng):
        k = BlurKernel.gaussian(5, 1.1)
        path = tmp_path / "k.txt"
        write_kernel(path, k)
        back = read_kernel(path)
        assert np.abs(back.taps - k.taps).max() <= 1e-15

    def test_kernel_bad_count(self, tmp_path):
        path = tmp_path / "k.txt"
        for text in ("3 3\n1 2 3 4\n", "-1 -1\n1\n", "0 0\n", "x 3\n1 2 3\n"):
            path.write_text(text)
            with pytest.raises(FormatError):
                read_kernel(path)

    def test_mask_roundtrip(self, tmp_path, rng):
        mask = (rng.uniform(size=(8, 8)) > 0.4).astype(float)
        path = tmp_path / "m.pgm"
        write_mask(path, mask)
        back = read_mask(path)
        assert np.array_equal(back, mask)

    def test_mask_rejects_gray(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 128]))
        with pytest.raises(ValidationError):
            read_mask(path)


class TestNoise:
    def test_deterministic(self):
        a = gaussian_field(42, (2, 8, 8))
        b = gaussian_field(42, (2, 8, 8))
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        assert not np.array_equal(gaussian_field(1, (64,)), gaussian_field(2, (64,)))

    def test_moments(self):
        draws = gaussian_field(7, (200000,))
        assert abs(draws.mean()) < 0.01
        assert abs(draws.std() - 1.0) < 0.01

    def test_known_first_draws(self):
        # frozen reference values of the LCG + Box-Muller stream for seed 0;
        # guards cross-build reproducibility of every synthetic fixture
        got = gaussian_field(0, (4,))
        want = np.array(
            [1.8121678731381863, 1.3464016942539272,
             -0.8151042636510335, 0.5827436242947464]
        )
        assert np.allclose(got, want, atol=1e-12)

    def test_add_noise_percent(self, rng):
        x = ImageTensor.full(32, 32, 0.5)
        noisy = add_gaussian_noise(x, 2.0, seed=3)
        sigma = (noisy.data - 0.5).std()
        assert abs(sigma - 0.02) < 0.005

    def test_zero_percent_identity(self, rng):
        x = random_image(rng)
        assert add_gaussian_noise(x, 0.0, seed=1) is x


class TestConfig:
    def test_parse_fraction(self):
        assert parse_number("p", "2/3") == pytest.approx(2.0 / 3.0)

    def test_parse_bad_number(self):
        with pytest.raises(ConfigError):
            parse_number("p", "abc")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mappings({"nope": 1})

    def test_file_then_cli_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("# comment\nmax_iters = 7\nseed = 5\ninput = a.pgm\n")
        cfg = ExperimentConfig.from_mappings(
            read_config_file(cfg_file), {"seed": "9"}
        )
        assert cfg.max_iters == 7
        assert cfg.seed == 9
        assert cfg.input == "a.pgm"

    def test_bad_line_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("max_iters 7\n")
        with pytest.raises(ConfigError):
            read_config_file(cfg_file)

    def test_task_and_solver_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mappings({"task": "sharpen", "input": "x"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mappings({"solver": "sgd", "input": "x"})
