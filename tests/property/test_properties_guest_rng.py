"""Property test: the guests' draw helpers are numpy's draws, bit for bit.

``GuestOS._random()`` and ``GuestOS._integers(low, high)`` call the guest
generator's C bit generator directly instead of going through numpy's
Python-level ``Generator`` methods. Every record depends on those draws, so
they must equal ``Generator.random()`` and ``int(Generator.integers(low,
high))`` exactly and leave the same ``bit_generator.state`` behind, across
snapshot restores and generators assigned through the ``rng`` setter. If a
numpy upgrade changes its bounded-integer algorithm, this is the test that
fails.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sut import JailhouseSUT, SutConfig
from repro.rng import seeded_rng

#: Draw spans: the degenerate span (no draw at all), powers of two, spans
#: near 2**32, and spans just above 2**31, which Lemire's method rejects
#: about half the time.
spans = st.one_of(
    st.just(1),
    st.just(2),
    st.integers(0, 32).map(lambda bits: 1 << bits),
    st.integers(0, 1 << 20).map(lambda gap: (1 << 32) - gap),
    st.integers(1, 1 << 20).map(lambda gap: (1 << 31) + gap),
    st.integers(1, 1 << 32),
)

guests = st.sampled_from(["linux", "freertos"])

operations = st.lists(st.one_of(
    st.tuples(st.just("random"), guests),
    st.tuples(st.just("integers"), guests,
              st.integers(-(1 << 40), 1 << 40), spans),
    st.tuples(st.just("snapshot"), guests),
    st.tuples(st.just("restore"), guests),
    st.tuples(st.just("reset"), st.integers(0, 1 << 32)),
), max_size=40)


class TestGuestDrawParity:
    @given(seed=st.integers(0, 1 << 32), ops=operations)
    @settings(max_examples=100, deadline=None)
    def test_guest_draws_equal_numpy_draws(self, seed, ops):
        """Property: the draw helpers replay numpy's stream exactly."""
        sut = JailhouseSUT(SutConfig(seed=seed))
        live = {"linux": sut.linux, "freertos": sut.freertos}
        mirror = {"linux": np.random.default_rng(seed),
                  "freertos": np.random.default_rng(seed + 1)}
        saved = {}
        for op in ops:
            kind = op[0]
            if kind == "random":
                name = op[1]
                assert live[name]._random() == mirror[name].random()
            elif kind == "integers":
                _, name, low, span = op
                drawn = live[name]._integers(low, low + span)
                assert type(drawn) is int
                assert drawn == int(mirror[name].integers(low, low + span))
            elif kind == "snapshot":
                name = op[1]
                saved[name] = (live[name].snapshot_state(), copy.deepcopy(
                    mirror[name].bit_generator.state))
            elif kind == "restore" and op[1] in saved:
                name = op[1]
                guest_state, mirror_state = saved[name]
                live[name].restore_state(guest_state)
                mirror[name].bit_generator.state = copy.deepcopy(mirror_state)
            elif kind == "reset":
                sut.linux.rng = seeded_rng(op[1])
                sut.freertos.rng = seeded_rng(op[1] + 1)
                mirror = {"linux": np.random.default_rng(op[1]),
                          "freertos": np.random.default_rng(op[1] + 1)}
        for name, guest in live.items():
            assert guest.rng.bit_generator.state == \
                mirror[name].bit_generator.state

    def test_spans_outside_one_to_two_pow_32_are_rejected(self):
        guest = JailhouseSUT().linux
        before = copy.deepcopy(guest.rng.bit_generator.state)
        for low, high in ((5, 5), (5, 4), (0, (1 << 32) + 1)):
            with pytest.raises(ValueError):
                guest._integers(low, high)
        assert guest.rng.bit_generator.state == before

    def test_a_deep_copy_draws_from_its_own_generator(self):
        guest = JailhouseSUT().freertos
        clone = copy.deepcopy(guest)
        assert clone.rng is not guest.rng
        draws = [clone._random(), clone._integers(0, 1000)]
        assert guest.rng.bit_generator.state != clone.rng.bit_generator.state
        assert [guest._random(), guest._integers(0, 1000)] == draws
        assert guest.rng.bit_generator.state == clone.rng.bit_generator.state
