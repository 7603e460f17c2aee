"""Unit tests for repro.hw.counters."""

import numpy as np
import pytest

from repro.hw.counters import CounterColumns, CounterSet


def _counter(seed: int) -> CounterSet:
    """Counters whose values are exact in float64 (powers of two), so
    the algebraic identities below hold bitwise, not just approximately."""
    base = float(1 << (seed % 20))
    return CounterSet(
        valu_insts=base,
        dram_read_bytes=base * 2.0,
        dram_write_bytes=base * 0.5,
        l2_read_bytes=base * 4.0,
        write_stall_cycles=base * 0.25,
        busy_cycles=base * 8.0,
    )


def _columns(counters: list[CounterSet]) -> CounterColumns:
    return CounterColumns(
        **{
            name: np.array([getattr(c, name) for c in counters])
            for name in CounterSet().as_dict()
        }
    )


class TestCounterSet:
    def test_addition_fieldwise(self):
        a = CounterSet(valu_insts=1, dram_read_bytes=2)
        b = CounterSet(valu_insts=10, dram_write_bytes=5)
        total = a + b
        assert total.valu_insts == 11
        assert total.dram_read_bytes == 2
        assert total.dram_write_bytes == 5

    def test_scaled(self):
        scaled = CounterSet(valu_insts=3, busy_cycles=7).scaled(2.0)
        assert scaled.valu_insts == 6
        assert scaled.busy_cycles == 14

    def test_zero_identity(self):
        a = CounterSet(valu_insts=5, l2_read_bytes=9)
        assert a + CounterSet.zero() == a

    def test_as_dict_covers_all_fields(self):
        d = CounterSet().as_dict()
        assert set(d) == {
            "valu_insts", "dram_read_bytes", "dram_write_bytes",
            "l2_read_bytes", "write_stall_cycles", "busy_cycles",
        }

    def test_write_stall_fraction(self):
        counters = CounterSet(write_stall_cycles=25, busy_cycles=100)
        assert counters.write_stall_fraction == pytest.approx(0.25)

    def test_write_stall_fraction_no_cycles(self):
        assert CounterSet().write_stall_fraction == 0.0

    def test_add_rejects_other_types(self):
        with pytest.raises(TypeError):
            CounterSet() + 5


class TestCounterAlgebra:
    """Identities the vectorized counter path relies on.

    The batched pipeline reorders *which object* performs each
    operation (columns instead of per-kernel sets) but never the
    operations themselves; these identities pin down the algebra that
    makes that reordering safe.
    """

    def test_zero_is_both_side_identity(self):
        a = _counter(7)
        assert a + CounterSet.zero() == a
        assert CounterSet.zero() + a == a

    def test_addition_associative_exactly(self):
        a, b, c = _counter(3), _counter(5), _counter(11)
        assert (a + b) + c == a + (b + c)

    def test_scaled_distributes_over_addition(self):
        a, b = _counter(4), _counter(9)
        for factor in (2.0, 0.5, 8.0):
            assert (a + b).scaled(factor) == a.scaled(factor) + b.scaled(factor)

    def test_scaled_one_is_identity_and_zero_annihilates(self):
        a = _counter(6)
        assert a.scaled(1.0) == a
        assert a.scaled(0.0) == CounterSet.zero()


class TestCounterColumns:
    def test_row_round_trips(self):
        counters = [_counter(i) for i in range(5)]
        columns = _columns(counters)
        assert len(columns) == 5
        for i, reference in enumerate(counters):
            assert columns.row(i) == reference
