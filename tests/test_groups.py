import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotmatch.groups import (CyclicGroup, FieldType, act_on_field,
                             regular_permutation, rotate_image, rotate_kernel)
from rotmatch.tensor import Tensor

C1 = CyclicGroup(1)
C4 = CyclicGroup(4)
C8 = CyclicGroup(8)


class TestCyclicGroup:
    def test_composition_is_index_addition(self):
        assert (C4.element(3) * C4.element(2)).k == 1

    def test_identity(self):
        assert C8.element(0) == C8.identity
        assert (C8.element(5) * C8.element(5).inverse()) == C8.identity

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="unsupported"):
            CyclicGroup(6)


class TestRegularPermutation:
    def test_identity(self):
        assert np.array_equal(regular_permutation(4, 0), [0, 1, 2, 3])

    def test_shift_by_one(self):
        v = np.array(["a", "b", "c", "d"])
        assert list(v[regular_permutation(4, 1)]) == ["d", "a", "b", "c"]

    def test_homomorphism(self):
        v = np.arange(4.0)
        once_twice = v[regular_permutation(4, 1)][regular_permutation(4, 1)]
        assert np.array_equal(once_twice, v[regular_permutation(4, 2)])

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_composition_property_c8(self, k1, k2):
        v = np.arange(8.0)
        lhs = v[regular_permutation(8, k2)][regular_permutation(8, k1)]
        rhs = v[regular_permutation(8, (k1 + k2) % 8)]
        assert np.array_equal(lhs, rhs)

    def test_range_check(self):
        with pytest.raises(ValueError):
            regular_permutation(4, 4)


class TestRotateImage:
    def test_quarter_turn_hand_permutation(self):
        img = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        out = rotate_image(img, C4.element(1), mode="exact")
        assert np.array_equal(out.data[0], [[2.0, 4.0], [1.0, 3.0]])

    def test_identity_element(self):
        rng = np.random.default_rng(0)
        img = rng.random((3, 5, 7)).astype(np.float32)
        out = rotate_image(img, C4.element(0), mode="exact")
        assert np.array_equal(out.data, img)

    def test_dims_swap_for_quarter_turn(self):
        img = np.zeros((1, 4, 6), dtype=np.float32)
        out = rotate_image(img, C4.element(1), mode="exact")
        assert out.data.shape == (1, 6, 4)

    def test_exact_mode_rejects_45_degrees(self):
        with pytest.raises(ValueError, match="multiple of 90"):
            rotate_image(np.zeros((1, 4, 4)), C8.element(1), mode="exact")

    def test_multiset_preserved_exact(self):
        rng = np.random.default_rng(1)
        img = rng.random((2, 6, 6))
        out = rotate_image(img, C4.element(3), mode="exact")
        assert np.array_equal(np.sort(out.data.ravel()), np.sort(img.ravel()))

    def test_c8_round_trip_interior(self):
        # smooth image: rotate 45 degrees and back, check interior recovery
        h = 48
        ys, xs = np.mgrid[0:h, 0:h] / (h - 1.0)
        img = (1.0 + 0.5 * np.sin(4.0 * xs) * np.cos(3.0 * ys))[None]
        fwd = rotate_image(img, C8.element(1), mode="bilinear")
        back = rotate_image(fwd, C8.element(7), mode="bilinear")
        yy, xx = np.mgrid[0:h, 0:h]
        r = np.sqrt((yy - (h - 1) / 2.0) ** 2 + (xx - (h - 1) / 2.0) ** 2)
        interior = r < 0.35 * h
        rel = np.abs(back.data[0][interior] - img[0][interior]) / np.abs(img[0][interior])
        assert rel.max() < 0.05

    def test_bilinear_90_matches_exact_on_square(self):
        rng = np.random.default_rng(2)
        img = rng.random((1, 8, 8))
        a = rotate_image(img, C4.element(1), mode="exact").data
        b = rotate_image(img, C4.element(1), mode="bilinear").data
        assert np.abs(a - b).max() < 1e-6


class TestActOnField:
    def test_all_trivial_is_channelwise_rotation(self):
        rng = np.random.default_rng(3)
        img = rng.random((3, 6, 6)).astype(np.float32)
        ft = FieldType.trivial(C4, 3)
        out = act_on_field(C4.element(1), img, ft, mode="exact")
        ref = rotate_image(img, C4.element(1), mode="exact")
        assert np.array_equal(out.data, ref.data)

    def test_constant_regular_field_is_pure_channel_shift(self):
        field = np.stack([np.full((5, 5), v, dtype=np.float32) for v in (1.0, 2.0, 3.0, 4.0)])
        ft = FieldType.regular(C4, 1)
        out = act_on_field(C4.element(1), field, ft, mode="exact")
        for j, v in enumerate([4.0, 1.0, 2.0, 3.0]):
            assert np.allclose(out.data[j], v)

    def test_round_trip_exact(self):
        rng = np.random.default_rng(4)
        k = C4.element(3)
        for ft in (FieldType.trivial(C4, 2), FieldType.regular(C4, 2)):
            field = rng.random((ft.channel_count, 6, 6)).astype(np.float32)
            out = act_on_field(k.inverse(), act_on_field(k, field, ft, mode="exact"),
                               ft, mode="exact")
            assert np.array_equal(out.data, field)

    @given(st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_homomorphism_exact(self, k1, k2):
        rng = np.random.default_rng(5)
        for ft in (FieldType.regular(C4, 2), FieldType.trivial(C4, 1)):
            field = rng.random((ft.channel_count, 4, 4)).astype(np.float32)
            lhs = act_on_field(C4.element(k1),
                               act_on_field(C4.element(k2), field, ft, mode="exact").data,
                               ft, mode="exact")
            rhs = act_on_field(C4.element((k1 + k2) % 4), field, ft, mode="exact")
            assert np.array_equal(lhs.data, rhs.data)

    def test_channel_mismatch(self):
        ft = FieldType.regular(C4, 1)
        with pytest.raises(ValueError, match="channels"):
            act_on_field(C4.element(1), np.zeros((3, 4, 4)), ft)

    def test_c1_everything_is_identity(self):
        rng = np.random.default_rng(6)
        ft = FieldType.regular(C1, 3)
        field = rng.random((3, 5, 5)).astype(np.float32)
        out = act_on_field(C1.element(0), field, ft, mode="exact")
        assert np.array_equal(out.data, field)


class TestRotateKernel:
    def test_quarter_turn_grid_permutation(self):
        k = np.arange(1.0, 10.0).reshape(1, 3, 3)
        out = rotate_kernel(k, C4.element(1))
        assert np.array_equal(out.data[0], [[3, 6, 9], [2, 5, 8], [1, 4, 7]])

    def test_identity_unchanged(self):
        rng = np.random.default_rng(7)
        k = rng.random((2, 2, 5, 5))
        out = rotate_kernel(k, C8.element(0))
        assert np.array_equal(out.data, k)

    def test_45_degrees_keeps_center(self):
        rng = np.random.default_rng(8)
        k = rng.random((3, 3))
        out = rotate_kernel(k[None], C8.element(1))
        assert np.isclose(out.data[0, 1, 1], k[1, 1])

    def test_quarter_turns_preserve_sum(self):
        rng = np.random.default_rng(9)
        k = rng.random((4, 2, 3, 3))
        for q in range(4):
            out = rotate_kernel(k, C4.element(q))
            assert np.allclose(out.data.sum(), k.sum())

    def test_even_size_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            rotate_kernel(np.zeros((1, 4, 4)), C4.element(1))

    def test_mask_bites_on_5x5_corners(self):
        k = np.ones((1, 5, 5))
        out = rotate_kernel(k, C8.element(1)).data[0]
        assert out[0, 0] == 0.0  # corner outside radius 2.5... distance 2*sqrt(2)
        assert out[2, 2] == 1.0

    def test_four_quarter_turns_identity(self):
        rng = np.random.default_rng(10)
        k = rng.random((1, 3, 3))
        out = k
        for _ in range(4):
            out = rotate_kernel(out, C4.element(1)).data
        assert np.array_equal(out, k)


class TestFieldType:
    def test_channel_count(self):
        trivial = FieldType.trivial(C4, 3)
        assert (trivial.width, trivial.channel_count) == (1, 3)
        assert np.array_equal(trivial.field_of_channel(), [0, 1, 2])
        regular = FieldType.regular(C8, 2)
        assert (regular.width, regular.channel_count) == (8, 16)
        assert np.array_equal(regular.field_of_channel(), [0] * 8 + [1] * 8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FieldType.trivial(C4, 0)
        with pytest.raises(ValueError):
            FieldType.regular(C4, 0)
        with pytest.raises(ValueError, match="kind"):
            FieldType(C4, "irregular", 1)
