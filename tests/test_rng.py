import numpy as np
import pytest

from bevssl.rng import GOLDEN, MASK64, Stream, mix64, normal_rows

M1 = 0xBF58476D1CE4E5B9
M2 = 0x94D049BB133111EB


def reference_mix(z: int) -> int:
    """Independent transcription of the documented update equations."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * M1) % (1 << 64)
    z = ((z ^ (z >> 27)) * M2) % (1 << 64)
    return z ^ (z >> 31)


def test_outputs_follow_documented_equations():
    seed = 0x12345678DEADBEEF
    st = Stream(seed)
    for i in range(50):
        expected = reference_mix((seed + (i + 1) * GOLDEN) % (1 << 64))
        assert st.u64() == expected


def test_vectorized_matches_scalar():
    a, b = Stream(42), Stream(42)
    vec = b.u64_array(257)
    for i in range(257):
        assert a.u64() == int(vec[i])
    # continuation after a vector draw stays aligned
    assert a.u64() == int(b.u64_array(1)[0])


def test_uniform_range_and_determinism():
    st = Stream(7)
    xs = st.uniforms(10_000)
    assert xs.min() >= 0.0 and xs.max() < 1.0
    assert Stream(7).uniforms(10_000).tolist() == xs.tolist()


def test_child_streams_are_independent_and_stable():
    st = Stream(99)
    a1 = st.child("alpha").uniforms(16)
    a2 = st.child("alpha").uniforms(16)
    b = st.child("beta").uniforms(16)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert st.child(3).u64() != st.child(4).u64()
    # splitting never advances the parent
    assert st.counter == 0


def test_normals_moments():
    xs = Stream(11).normals(40_000)
    assert abs(xs.mean()) < 0.02
    assert abs(xs.std() - 1.0) < 0.02


def reference_normals(st: Stream, n: int) -> np.ndarray:
    """The documented Box-Muller over one stream's next 2n raw draws, one
    temporary per step."""
    raw = st.u64_array(2 * n)
    u1 = ((raw[:n] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (raw[n:] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@pytest.mark.parametrize("n", [1, 2, 3072, 5000, 30000])
def test_normal_rows_match_each_stream_normals(n):
    """Row k is stream k's `normals` and the documented transform, byte for
    byte; at n = 5000 the four rows are drawn as a band of three and a band
    of one, at 30000 one a band."""
    def streams():
        # the last stream has drawn before
        return [Stream(3).child(f"noise{k}") for k in range(3)] + [Stream(8, 5)]

    got = streams()
    rows = normal_rows(got, n)
    assert rows.shape == (4, n) and rows.dtype == np.float64
    for st, row, one in zip(got, rows, streams()):
        counter = one.counter
        want = one.normals(n)
        assert row.tobytes() == want.tobytes()
        assert st.counter == one.counter == counter + 2 * n
    for row, ref in zip(rows, streams()):
        assert row.tobytes() == reference_normals(ref, n).tobytes()


def test_randint_bounds():
    st = Stream(5)
    draws = [st.randint(7) for _ in range(2000)]
    assert min(draws) == 0 and max(draws) == 6
    with pytest.raises(ValueError):
        st.randint(0)


def test_shuffle_is_a_permutation():
    st = Stream(13)
    items = list(range(40))
    st.shuffle(items)
    assert sorted(items) == list(range(40))
    assert items != list(range(40))


def test_poisson_mean():
    st = Stream(21)
    draws = [st.poisson(2.5) for _ in range(4000)]
    assert abs(np.mean(draws) - 2.5) < 0.12
    assert st.poisson(0.0) == 0


def test_mix64_matches_reference():
    for z in (0, 1, GOLDEN, MASK64, 0xABCDEF0123456789):
        assert mix64(z) == reference_mix(z)
