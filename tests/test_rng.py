import numpy as np
import pytest

from latent_structure_lab.rng import (
    RngState,
    derive_seed,
    draw_index,
    next_u64,
    next_unit,
    next_units,
    shuffled,
)

# Published reference outputs of the splitmix64 recurrence.
REFERENCE_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC)


def test_reference_stream():
    rng = RngState(0)
    for want in REFERENCE_SEED0:
        got, rng = next_u64(rng)
        assert got == want


def test_states_are_immutable_values():
    rng = RngState(123)
    _, advanced = next_u64(rng)
    assert rng.state == 123
    assert advanced.state != 123


def test_unit_uses_top_53_bits():
    u, _ = next_unit(RngState(0))
    assert u == (REFERENCE_SEED0[0] >> 11) / float(1 << 53)
    rng = RngState(987654321)
    for _ in range(1000):
        u, rng = next_unit(rng)
        assert 0.0 <= u < 1.0


def test_derive_seed_matches_stream():
    first, _ = next_u64(RngState(1000 + 17))
    assert derive_seed(1000, 17) == first


def test_draw_index_degenerate_weights():
    rng = RngState(5)
    for _ in range(50):
        i, rng = draw_index(np.array([1.0, 0.0, 0.0, 0.0]), rng)
        assert i == 0


def test_draw_index_advances_once():
    rng = RngState(5)
    _, after = draw_index(np.array([0.5, 0.5]), rng)
    _, expected = next_unit(rng)
    assert after == expected


def test_shuffled_is_a_permutation_and_deterministic():
    rng = RngState(44)
    out1, _ = shuffled(range(12), rng)
    out2, _ = shuffled(range(12), rng)
    assert out1 == out2
    assert sorted(out1) == list(range(12))


GOLDEN = 0x9E3779B97F4A7C15
# Seeds whose streams wrap 2**64 at once, within a few steps, or not for a long time.
WRAPPING_SEEDS = (0, 1, 2**64 - 1, 2**64 - 3 * GOLDEN % 2**64, 2**63, 987654321)


def scalar_units(rng, n):
    out = []
    for _ in range(n):
        u, rng = next_unit(rng)
        out.append(u)
    return np.array(out, dtype=np.float64), rng


class TestNextUnits:
    @pytest.mark.parametrize("seed", WRAPPING_SEEDS)
    @pytest.mark.parametrize("n", (1, 2, 7, 1000))
    def test_equals_scalar_draws_bit_for_bit(self, seed, n):
        units, after = next_units(RngState(seed), n)
        want, want_after = scalar_units(RngState(seed), n)
        assert units.dtype == np.float64 and units.shape == (n,)
        np.testing.assert_array_equal(units.view(np.int64), want.view(np.int64))
        assert after == want_after

    def test_stream_continues_across_calls(self):
        first, mid = next_units(RngState(2**64 - 5), 3)
        second, end = next_units(mid, 4)
        want, want_end = scalar_units(RngState(2**64 - 5), 7)
        np.testing.assert_array_equal(np.concatenate([first, second]), want)
        assert end == want_end

    def test_zero_draws_keep_the_state(self):
        units, after = next_units(RngState(2**64 - 1), 0)
        assert units.shape == (0,) and units.dtype == np.float64
        assert after == RngState(2**64 - 1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            next_units(RngState(1), -1)
