import numpy as np
import pytest

from tlf.denoise import KINDS, DenoiserSpec, denoise, external_roundtrip
from tlf.errors import ConfigError, DenoiserError, ShapeError
from tlf.prox import ProxSpec, prox_lp
from tlf.tensor import ImageTensor, WaveletForward

from conftest import random_image, roll_diff, write_double

ALL_KINDS = ["tv-rof", "median", "wavelet-shrink"]


def tv_energy(img):
    gh = roll_diff(img.data, -1, True)
    gv = roll_diff(img.data, -2, True)
    return np.abs(gh).sum() + np.abs(gv).sum()


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            DenoiserSpec(kind="bm3d")

    def test_external_needs_command(self):
        with pytest.raises(ConfigError):
            DenoiserSpec(kind="external")

    @pytest.mark.parametrize("command", ['foo "bar', "   "], ids=["unbalanced-quote", "blank"])
    def test_external_command_split_when_built(self, command):
        with pytest.raises(ConfigError):
            DenoiserSpec(kind="external", command=command)

    @pytest.mark.parametrize("strength", [(), (1.0, -1.0), (1.0, float("nan"))], ids=str)
    def test_bad_strength_rejected(self, strength):
        with pytest.raises(ConfigError):
            DenoiserSpec(kind="tv-rof", strength=strength)

    @pytest.mark.parametrize("strength", [[1.0], "1", None, (1.0, "2")], ids=repr)
    def test_strength_of_wrong_type_rejected(self, strength):
        with pytest.raises(ConfigError, match="number"):
            DenoiserSpec(kind="tv-rof", strength=strength)

    @pytest.mark.parametrize("text", ["external", "external:1", " external :0.5,1"])
    def test_parse_points_external_to_its_flag(self, text):
        with pytest.raises(ConfigError, match="--external-denoiser"):
            DenoiserSpec.parse(text)

    def test_parse_single(self):
        spec = DenoiserSpec.parse("tv-rof:0.05")
        assert spec.kind == "tv-rof" and spec.strength == 0.05

    @pytest.mark.parametrize("text", [
        "tv-rof:abc", "tv-rof:nan", "median:1.0,inf", "tv-rof:,", "tv-rof: ",
        "tv-rof:", "median:1,", "median:,1",
    ])
    def test_parse_bad_strength(self, text):
        with pytest.raises(ConfigError):
            DenoiserSpec.parse(text)

    def test_parse_schedule_clamps(self):
        spec = DenoiserSpec.parse("median:1.0,0.5,0.25")
        assert spec.strength == (1.0, 0.5, 0.25)
        assert spec.strength_at(0) == 1.0
        assert spec.strength_at(2) == 0.25
        assert spec.strength_at(99) == 0.25


class TestDesignedDenoisers:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_strength_zero_is_identity(self, rng, kind):
        x = random_image(rng, 16, 16)
        out = denoise(DenoiserSpec(kind=kind, strength=0.0), x, 0)
        assert np.array_equal(out.data, x.data)

    @pytest.mark.parametrize("kind,strength", [
        ("tv-rof", 0.05), ("median", 1.0), ("wavelet-shrink", 0.05),
    ])
    def test_shape_preserving_and_finite(self, rng, kind, strength):
        x = random_image(rng, 16, 16, c=3)
        out = denoise(DenoiserSpec(kind=kind, strength=strength), x, 0)
        assert out.shape == x.shape
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("kind,strength", [
        ("median", 2.0), ("median", 1.0), ("tv-rof", 0.1),
    ])
    def test_constant_preserved(self, kind, strength):
        x = ImageTensor(np.full((1, 16, 16), 0.6))
        out = denoise(DenoiserSpec(kind=kind, strength=strength), x, 0)
        assert np.abs(out.data - 0.6).max() <= 1e-10

    def test_each_kind_reaches_its_own_filter(self, rng):
        assert KINDS == ("tv-rof", "median", "wavelet-shrink", "external")
        x = random_image(rng, 16, 16)
        outs = [denoise(DenoiserSpec(kind=kind, strength=0.5), x, 0).data for kind in ALL_KINDS]
        for i in range(len(outs)):
            for j in range(i):
                assert not np.array_equal(outs[i], outs[j]), (ALL_KINDS[i], ALL_KINDS[j])

    def test_tv_rof_reduces_tv_energy(self, rng):
        clean = ImageTensor(np.full((1, 16, 16), 0.5))
        noisy = ImageTensor(clean.data + 0.1 * rng.standard_normal((1, 16, 16)))
        out = denoise(DenoiserSpec(kind="tv-rof", strength=0.05), noisy, 0)
        assert tv_energy(out) <= tv_energy(noisy)

    def test_wavelet_shrink_equals_composition(self, rng):
        x = random_image(rng, 16, 16)
        tau = 0.03
        got = denoise(DenoiserSpec(kind="wavelet-shrink", strength=tau), x, 0)
        want = WaveletForward(3).adjoint(
            prox_lp(WaveletForward(3).apply(x), ProxSpec(1.0, tau))
        )
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("h,w,levels", [(20, 20, 2), (24, 12, 2), (8, 6, 1)])
    def test_wavelet_shrink_levels_follow_the_size(self, rng, h, w, levels):
        x = random_image(rng, h, w)
        got = denoise(DenoiserSpec(kind="wavelet-shrink", strength=0.03), x, 0)
        want = WaveletForward(levels).adjoint(
            prox_lp(WaveletForward(levels).apply(x), ProxSpec(1.0, 0.03))
        )
        assert np.array_equal(got.data, want.data)

    def test_wavelet_shrink_odd_side_rejected(self, rng):
        with pytest.raises(ShapeError):
            denoise(DenoiserSpec(kind="wavelet-shrink", strength=0.03), random_image(rng, 9, 8), 0)

    def test_negative_iter_index(self, rng):
        with pytest.raises(ConfigError):
            denoise(DenoiserSpec(kind="median", strength=1.0), random_image(rng), -1)


class TestExternalProtocol:
    def test_echo_roundtrip_bit_exact(self, rng, echo_denoiser):
        x = ImageTensor(
            rng.uniform(0, 1, size=(1, 8, 8)).astype(np.float32).astype(np.float64)
        )
        out = external_roundtrip(echo_denoiser, x, hint=0.5)
        assert np.array_equal(out.data, x.data)

    def test_add_constant_double(self, rng, add_denoiser):
        x = random_image(rng, 8, 8)
        out = external_roundtrip(add_denoiser, x, hint=0.0)
        want = (x.data.astype(np.float32) + np.float32(0.01)).astype(np.float64)
        assert np.abs(out.data - want).max() <= 1e-7

    def test_shape_corruptor_raises(self, rng, bad_shape_denoiser):
        with pytest.raises(DenoiserError):
            external_roundtrip(bad_shape_denoiser, random_image(rng, 8, 8))

    def test_bad_magic_raises(self, rng, bad_magic_denoiser):
        with pytest.raises(DenoiserError):
            external_roundtrip(bad_magic_denoiser, random_image(rng, 8, 8))

    def test_nonzero_exit_raises(self, rng, failing_denoiser):
        with pytest.raises(DenoiserError):
            external_roundtrip(failing_denoiser, random_image(rng, 8, 8))

    def test_missing_executable_raises(self, rng, tmp_path, not_executable):
        # missing, or there but not startable: no execute permission, a directory
        for command in ("/nonexistent/denoiser-bin", not_executable, str(tmp_path)):
            with pytest.raises(DenoiserError, match="cannot launch denoiser"):
                external_roundtrip(command, random_image(rng, 8, 8))

    def test_nan_reply_raises(self, rng, nan_denoiser):
        with pytest.raises(DenoiserError, match="NaN or Inf"):
            external_roundtrip(nan_denoiser, random_image(rng, 8, 8))

    def test_timeout_raises(self, rng, tmp_path):
        cmd = write_double(tmp_path, "sleepy", "import time; time.sleep(30)")
        with pytest.raises(DenoiserError):
            external_roundtrip(cmd, random_image(rng, 8, 8), timeout=1.5)

    def test_truncated_reply_raises(self, rng, tmp_path):
        cmd = write_double(
            tmp_path,
            "truncated",
            "sys.stdout.buffer.write(magic + struct.pack('<III', h, w, c) + payload.tobytes()[:-8])",
        )
        with pytest.raises(DenoiserError):
            external_roundtrip(cmd, random_image(rng, 8, 8))

    def test_denoise_dispatch_external(self, rng, echo_denoiser):
        x = ImageTensor(
            rng.uniform(0, 1, size=(1, 8, 8)).astype(np.float32).astype(np.float64)
        )
        spec = DenoiserSpec(kind="external", command=echo_denoiser, strength=1.0)
        out = denoise(spec, x, 0)
        assert np.array_equal(out.data, x.data)
