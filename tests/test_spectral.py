import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kortorus.errors import InvalidField
from kortorus.spectral import (
    ScalarField,
    SpectralGrid,
    VectorField,
    dealias,
    dealiased_product,
    divergence,
    forward_transform,
    gradient,
    hessian,
    integrate,
    inverse_transform,
    laplacian,
    lp_norm,
    lp_norms,
    vector_gradient,
    tensor_divergence,
)
from helpers import fd4_gradient, circular_convolution_coeffs, max_abs

TAU = 2.0 * math.pi


def random_smooth(grid, seed, kmax=None):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=complex)
    kmax = kmax or min(grid.resolution) // 4
    if grid.dim == 1:
        for k in range(1, kmax + 1):
            c = (rng.normal() + 1j * rng.normal()) * math.exp(-0.4 * k)
            coeffs[k] = c
            coeffs[-k] = np.conj(c)
    else:
        n0, n1 = grid.resolution
        for kx in range(-kmax, kmax + 1):
            for ky in range(-kmax, kmax + 1):
                if kx == 0 and ky == 0:
                    continue
                c = (rng.normal() + 1j * rng.normal()) * math.exp(-0.4 * math.hypot(kx, ky))
                coeffs[kx % n0, ky % n1] = c
        # symmetrize so samples are real
        flipped = np.conj(np.roll(np.flip(coeffs), shift=1, axis=(0, 1)))
        coeffs = 0.5 * (coeffs + flipped)
    return inverse_transform(grid, coeffs)


class TestGrid:
    def test_rejects_small_and_non_power_of_two(self):
        with pytest.raises(ValueError):
            SpectralGrid(4)
        with pytest.raises(ValueError):
            SpectralGrid(48)
        with pytest.raises(ValueError):
            SpectralGrid((64, 64, 64))
        with pytest.raises(ValueError):
            SpectralGrid(64, length=-1.0)

    def test_lattice_symmetry(self):
        grid = SpectralGrid((32, 64))
        for axis, beta in enumerate(grid.beta_axes):
            flat = np.unique(np.ravel(beta))
            n = grid.resolution[axis]
            nyquist = -flat.min()
            for b in flat:
                if abs(b) != nyquist:
                    assert -b in flat
        # derivative multipliers zero the Nyquist entry (beta = k for L = 2 pi)
        for axis, ik in enumerate(grid.rfft_ik):
            assert np.max(np.abs(ik)) == grid.resolution[axis] // 2 - 1

    def test_volume_and_spacing(self):
        grid = SpectralGrid((16, 32), length=(TAU, 1.0))
        assert grid.volume == pytest.approx(TAU)
        assert grid.spacing == (TAU / 16, 1.0 / 32)


class TestTransform:
    def test_constant_field(self):
        grid = SpectralGrid(32)
        coeffs = forward_transform(grid.constant(3.0))
        assert coeffs[0] == pytest.approx(3.0)
        assert max_abs(coeffs[1:]) == 0.0

    def test_single_mode(self):
        grid = SpectralGrid(64)
        coeffs = forward_transform(grid.from_function(np.cos))
        assert coeffs[1] == pytest.approx(0.5, abs=1e-15)
        assert coeffs[-1] == pytest.approx(0.5, abs=1e-15)
        rest = coeffs.copy()
        rest[1] = rest[-1] = 0.0
        assert max_abs(rest) < 1e-16

    @pytest.mark.parametrize("resolution", [8, 32, 128, (16, 16), (32, 64)])
    def test_round_trip(self, resolution):
        grid = SpectralGrid(resolution)
        f = random_smooth(grid, seed=1)
        back = inverse_transform(grid, forward_transform(f))
        assert max_abs(back.data - f.data) < 1e-13 * max(1.0, max_abs(f.data))

    def test_non_finite_rejected(self):
        grid = SpectralGrid(16)
        data = np.zeros(grid.shape)
        data[3] = np.nan
        with pytest.raises(InvalidField):
            forward_transform(ScalarField(grid, data))

    def test_shape_mismatch_rejected(self):
        grid = SpectralGrid(16)
        with pytest.raises(InvalidField):
            ScalarField(grid, np.zeros(8))


class TestDerivatives:
    def test_gradient_sin(self):
        grid = SpectralGrid(64)
        g = gradient(grid.from_function(np.sin))
        assert max_abs(g.data[0] - np.cos(grid.axes()[0])) < 1e-12

    def test_gradient_constant_exactly_zero(self):
        grid = SpectralGrid(32)
        assert max_abs(gradient(grid.constant(2.5)).data) == 0.0

    def test_gradient_matches_fd4(self):
        # independent fourth-order stencil oracle: difference shrinks as h^4
        errs = []
        for res in (64, 128):
            grid = SpectralGrid(res)
            f = grid.from_function(lambda x: np.exp(np.sin(x)))
            errs.append(max_abs(gradient(f).data - fd4_gradient(f)))
        assert errs[0] < 2e-4
        assert errs[1] < errs[0] / 12.0  # ~16x for an O(h^4) stencil

    def test_laplacian_sin(self):
        grid = SpectralGrid(64)
        lap = laplacian(grid.from_function(np.sin))
        assert max_abs(lap.data + np.sin(grid.axes()[0])) < 1e-12

    def test_hessian_constant_zero(self):
        grid = SpectralGrid((16, 16))
        assert max_abs(hessian(grid.constant(4.0)).data) == 0.0

    @pytest.mark.parametrize("resolution", [64, (32, 32)])
    def test_divergence_of_gradient_is_laplacian(self, resolution):
        grid = SpectralGrid(resolution)
        f = random_smooth(grid, seed=2)
        gap = divergence(gradient(f)).data - laplacian(f).data
        scale = lp_norm(laplacian(f), 2.0)
        assert math.sqrt(np.sum(gap ** 2) * grid.cell_volume) < 1e-13 * scale

    def test_mixed_partials_commute(self):
        grid = SpectralGrid((32, 32))
        f = random_smooth(grid, seed=3)
        gx = gradient(f).component(0)
        gy = gradient(f).component(1)
        dxy = gradient(gx).data[1]
        dyx = gradient(gy).data[0]
        assert max_abs(dxy - dyx) < 1e-12 * max(1.0, max_abs(dxy))

    def test_trig_polynomial_derivative_exact(self):
        grid = SpectralGrid(32)
        x = grid.axes()[0]
        f = ScalarField(grid, 2.0 * np.cos(3 * x) - 0.5 * np.sin(7 * x))
        exact = -6.0 * np.sin(3 * x) - 3.5 * np.cos(7 * x)
        assert max_abs(gradient(f).data[0] - exact) < 1e-12

    def test_nyquist_mode_zeroed(self):
        grid = SpectralGrid(16)
        x = grid.axes()[0]
        f = ScalarField(grid, np.cos(8 * x))  # pure Nyquist mode
        assert max_abs(gradient(f).data) < 1e-13
        assert max_abs(laplacian(f).data) < 1e-12

    def test_vector_calculus_shapes(self):
        grid = SpectralGrid((16, 32))
        F = VectorField(grid, np.stack([random_smooth(grid, 4).data,
                                        random_smooth(grid, 5).data]))
        T = vector_gradient(F)
        assert T.data.shape == (2, 2, 16, 32)
        back = tensor_divergence(T)
        assert back.data.shape == (2, 16, 32)


class TestQuadrature:
    def test_constant(self):
        grid = SpectralGrid(32)
        assert integrate(grid.constant(1.0)) == pytest.approx(TAU)

    def test_sin_zero(self):
        grid = SpectralGrid(64)
        assert abs(integrate(grid.from_function(np.sin))) < 1e-14

    def test_sin_squared(self):
        grid = SpectralGrid(64)
        val = integrate(grid.from_function(lambda x: np.sin(x) ** 2))
        assert abs(val - math.pi) < 1e-13

    def test_integration_by_parts(self):
        grid = SpectralGrid(64)
        f = dealias(random_smooth(grid, 6))
        G = dealias(VectorField(grid, random_smooth(grid, 7).data[None]))
        total = integrate(ScalarField(
            grid, np.sum(gradient(f).data * G.data, axis=0) + f.data * divergence(G).data))
        assert abs(total) < 1e-12

    def test_lp_norms(self):
        grid = SpectralGrid(64)
        f = grid.constant(-2.0)
        assert lp_norm(f, 2.0) == pytest.approx(2.0 * math.sqrt(TAU))
        assert lp_norm(f, math.inf) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    @pytest.mark.parametrize("resolution", [64, (16, 32)])
    @pytest.mark.parametrize("rank", [0, 1])
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 4.0, math.inf])
    def test_lp_norms_rows_are_lp_norm_of_each_row(self, resolution, rank, p):
        grid = SpectralGrid(resolution)
        kind = ScalarField if rank == 0 else VectorField
        fields = [kind(grid, np.random.default_rng(seed).normal(
            size=(grid.dim,) * rank + grid.shape)) for seed in range(5)]
        stacked = np.array([f.data for f in fields])
        rows = stacked if rank == 0 else np.sqrt(np.sum(stacked ** 2, axis=1))
        assert lp_norms(rows, p, grid) == [lp_norm(f, p) for f in fields]
        assert lp_norms(rows[0], p, grid) == [lp_norm(fields[0], p)]

        def one_row(data):  # the rule written out for a single array
            if math.isinf(p):
                return float(np.max(np.abs(data)))
            return float((np.sum(np.abs(data) ** p) * grid.cell_volume) ** (1.0 / p))
        assert lp_norms(rows, p, grid) == [one_row(row) for row in rows]


class TestDealias:
    def test_band_limited_unchanged(self):
        grid = SpectralGrid(64)  # cutoff floor(64/3) = 21
        x = grid.axes()[0]
        f = ScalarField(grid, np.cos(21 * x) + np.sin(5 * x))
        assert max_abs(dealias(f).data - f.data) < 1e-13

    def test_high_mode_zeroed(self):
        grid = SpectralGrid(64)
        f = ScalarField(grid, np.cos(22 * grid.axes()[0]))
        assert max_abs(dealias(f).data) < 1e-13

    def test_product_matches_exact_convolution(self):
        # the dealiased grid product of two below-cutoff fields equals the
        # exact coefficient convolution projected onto the retained band
        grid = SpectralGrid(64)
        a = random_smooth(grid, 8, kmax=21)
        b = random_smooth(grid, 9, kmax=21)
        prod = dealiased_product(a, b)
        exact = circular_convolution_coeffs(forward_transform(a), forward_transform(b))
        keep = np.abs(np.fft.fftfreq(64, d=1 / 64)) <= 21
        exact *= keep
        expected = inverse_transform(grid, exact)
        assert max_abs(prod.data - expected.data) < 1e-12 * max(1.0, max_abs(prod.data))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       res_exp=st.integers(3, 7))
def test_round_trip_property(seed, res_exp):
    grid = SpectralGrid(2 ** res_exp)
    f = random_smooth(grid, seed, kmax=max(2, 2 ** res_exp // 4))
    back = inverse_transform(grid, forward_transform(f))
    assert max_abs(back.data - f.data) < 1e-13 * max(1.0, max_abs(f.data))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_integration_by_parts_property(seed):
    grid = SpectralGrid(32)
    f = dealias(random_smooth(grid, seed))
    G = dealias(VectorField(grid, random_smooth(grid, seed + 1).data[None]))
    total = integrate(ScalarField(
        grid, np.sum(gradient(f).data * G.data, axis=0) + f.data * divergence(G).data))
    assert abs(total) < 1e-11
