import pytest
from hypothesis import given, strategies as st

from iprox.errors import ContractViolation
from iprox.rng import SplitMix64

# Reference outputs computed with a separate straight-line implementation
# of the published algorithm (finalizer constants 0xBF58476D1CE4E5B9 and
# 0x94D049BB133111EB, increment 0x9E3779B97F4A7C15).
KNOWN = {
    0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        0xF88BB8A8724C81EC, 0x1B39896A51A8749B],
    1: [0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E,
        0x71C18690EE42C90B, 0x71BB54D8D101B5B9],
    0x123456789ABCDEF: [0x157A3807A48FAA9D, 0xD573529B34A1D093,
                        0x2F90B72E996DCCBE, 0xA2D419334C4667EC,
                        0x01404CE914938008],
}


@pytest.mark.parametrize("seed", sorted(KNOWN))
def test_known_answer_stream(seed):
    g = SplitMix64(seed)
    assert [g.next_u64() for _ in range(5)] == KNOWN[seed]


def test_randint_below_known_answers():
    g = SplitMix64(0)
    assert [g.randint_below(10) for _ in range(12)] == [5, 0, 9, 4, 7, 0, 3, 0, 9, 0, 1, 6]
    g = SplitMix64(42)
    assert [g.randint_below(7) for _ in range(12)] == [5, 5, 0, 2, 6, 4, 2, 6, 6, 5, 5, 6]


def test_same_seed_same_stream():
    a, b = SplitMix64(987654321), SplitMix64(987654321)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_seed_validation():
    with pytest.raises(ContractViolation):
        SplitMix64(-1)
    with pytest.raises(ContractViolation):
        SplitMix64(1 << 64)
    with pytest.raises(ContractViolation):
        SplitMix64(1.5)


def test_randint_below_validation():
    g = SplitMix64(0)
    with pytest.raises(ContractViolation):
        g.randint_below(0)
    with pytest.raises(ContractViolation):
        g.randint_below(-3)


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       n=st.integers(min_value=1, max_value=10 ** 9))
def test_randint_below_in_range(seed, n):
    g = SplitMix64(seed)
    for _ in range(8):
        v = g.randint_below(n)
        assert 0 <= v < n


def test_n_one_always_zero():
    g = SplitMix64(7)
    assert all(g.randint_below(1) == 0 for _ in range(20))


def test_small_n_hits_every_value():
    # sanity for the rejection step: 600 draws of 6 values should see all
    g = SplitMix64(3)
    seen = {g.randint_below(6) for _ in range(600)}
    assert seen == set(range(6))


MASK = 2 ** 64 - 1


def _unmix(z: int) -> int:
    # the state whose SplitMix64 output is z: the finalizer run backwards
    def unshift(y, s):  # inverse of y ^ (y >> s)
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x & MASK
    z = unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2 ** 64)) & MASK
    z = unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64)) & MASK
    return unshift(z, 30)


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       n=st.one_of(st.integers(min_value=1, max_value=64),
                   st.integers(min_value=1, max_value=2 ** 63)),
       counts=st.lists(st.integers(min_value=0, max_value=300), min_size=1, max_size=4))
def test_batched_draws_equal_successive_draws(seed, n, counts):
    # batches of any size, back to back, give the scalar stream and state
    a, b = SplitMix64(seed), SplitMix64(seed)
    for count in counts:
        assert b.randint_below_batch(n, count) == [a.randint_below(n) for _ in range(count)]
        assert a.state == b.state


@pytest.mark.parametrize("where", [0, 1, 255, 256])
def test_batched_draws_fall_back_on_a_rejected_draw(where):
    # n = 3 rejects exactly the draw 2^64 - 1; plant it at draw `where`
    state = _unmix(MASK)
    seed = (state - (where + 1) * 0x9E3779B97F4A7C15) & MASK
    probe = SplitMix64(seed)
    assert [probe.next_u64() for _ in range(where + 1)][-1] == MASK
    a, b = SplitMix64(seed), SplitMix64(seed)
    want = [a.randint_below(3) for _ in range(300)]
    got = b.randint_below_batch(3, 256) + b.randint_below_batch(3, 44)
    assert got == want and a.state == b.state
    # the rejected draw was skipped, so the stream ran one draw further
    assert a.state == (seed + 301 * 0x9E3779B97F4A7C15) & MASK


def test_batched_draws_validation():
    g = SplitMix64(0)
    for n, count in ((0, 4), (-3, 4), (2 ** 64, 4), (3, -1), (3, 2.0)):
        with pytest.raises(ContractViolation):
            g.randint_below_batch(n, count)
    assert g.state == 0
