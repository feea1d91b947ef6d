"""Tests for the FIR filter application circuit."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.fir import fir_filter, fir_reference
from repro.errors import ReproError
from repro.network import simulate_words


def bus_val(bits):
    v = 0
    for i, b in enumerate(bits):
        v |= b << i
    return v


def run_fir(net, samples, sample_bits):
    row = []
    for s in samples:
        row.extend((s >> i) & 1 for i in range(sample_bits))
    return bus_val(simulate_words(net, [row])[0])


class TestFunctional:
    @given(
        samples=st.lists(st.integers(0, 255), min_size=4, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, samples):
        coeffs = [3, 5, 7, 2]
        net = fir_filter(coeffs, sample_bits=8)
        got = run_fir(net, samples, 8)
        assert got == fir_reference(samples, coeffs, 8)

    def test_single_tap_identity(self):
        net = fir_filter([1], sample_bits=6)
        assert run_fir(net, [37], 6) == 37

    def test_power_of_two_coefficient_is_shift(self):
        net = fir_filter([8], sample_bits=6)
        assert run_fir(net, [37], 6) == 37 * 8

    def test_zero_coefficient_tap_ignored(self):
        coeffs = [0, 4]
        net = fir_filter(coeffs, sample_bits=4)
        rng = random.Random(0)
        for _ in range(10):
            s = [rng.randrange(16), rng.randrange(16)]
            assert run_fir(net, s, 4) == 4 * s[1]

    def test_max_values_no_overflow(self):
        coeffs = [7, 7, 7]
        net = fir_filter(coeffs, sample_bits=5)
        samples = [31, 31, 31]
        assert run_fir(net, samples, 5) == 21 * 31

    def test_empty_coeffs_rejected(self):
        with pytest.raises(ReproError):
            fir_filter([])

    def test_negative_coeffs_rejected(self):
        with pytest.raises(ReproError):
            fir_filter([1, -2])


class TestMapping:
    def test_t1_rich(self):
        """Shift-add trees are full-adder fabric: T1 detection bites."""
        from repro.pipeline import Pipeline

        net = fir_filter([3, 5, 7, 2], sample_bits=6)
        res = Pipeline.standard(n_phases=4, use_t1=True, verify="cec").run(net)
        assert res.t1_used >= 5
        assert res.verified is True

    def test_streams_one_sample_per_cycle(self):
        from repro.pipeline import Pipeline
        from repro.sfq import PulseSimulator

        coeffs = [3, 1, 2]
        bits = 4
        net = fir_filter(coeffs, sample_bits=bits)
        res = Pipeline.standard(
            n_phases=4, use_t1=True, verify="none"
        ).run(net)
        rng = random.Random(7)
        stimulus = []
        expect = []
        for _ in range(12):
            samples = [rng.randrange(1 << bits) for _ in coeffs]
            row = []
            for s in samples:
                row.extend((s >> i) & 1 for i in range(bits))
            stimulus.append(row)
            expect.append(fir_reference(samples, coeffs, bits))
        out = PulseSimulator(res.netlist).run(stimulus)
        got = [bus_val(v) for v in out.po_values]
        assert got == expect
