"""Unit tests for repro.kernels.registry and autotune."""

import pytest

from repro.hw.config import paper_config
from repro.kernels.autotune import Autotuner
from repro.kernels.elementwise import elementwise
from repro.kernels.gemm import gemm
from repro.kernels.reduction import reduction
from repro.kernels.registry import KernelRegistry, default_registry


class TestRegistry:
    def test_classifies_gemm(self):
        registry = default_registry()
        inv = gemm(256, 256, 256, paper_config(1))
        assert registry.family_of(inv.name) == "gemm"

    def test_classifies_elementwise(self):
        registry = default_registry()
        assert registry.family_of(elementwise("relu", 64).name) == "elementwise"

    def test_classifies_reduction(self):
        registry = default_registry()
        assert registry.family_of(reduction("sum", 4, 64).name) == "reduction"

    def test_unknown_name(self):
        assert default_registry().family_of("mystery_kernel") == "unknown"

    def test_duplicate_family_rejected(self):
        registry = KernelRegistry()
        registry.register_family("f", ["p"])
        with pytest.raises(ValueError, match="already registered"):
            registry.register_family("f", ["q"])

    def test_empty_prefixes_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            KernelRegistry().register_family("f", [])

    def test_unknown_family_lookup_raises(self):
        with pytest.raises(KeyError):
            default_registry().prefixes("nope")


class TestAutotuner:
    def test_first_charge_costs(self):
        tuner = Autotuner(paper_config(1))
        assert tuner.epoch_cost([(256, 256, 256)], set()) > 0.0

    def test_second_charge_free(self):
        tuner = Autotuner(paper_config(1))
        tuned: set = set()
        tuner.epoch_cost([(256, 256, 256)], tuned)
        assert tuned == {(256, 256, 256)}
        assert tuner.epoch_cost([(256, 256, 256)], tuned) == 0.0
        # Repeats within one epoch are tuned once too.
        once = tuner.epoch_cost([(64, 64, 64)], set())
        assert tuner.epoch_cost([(64, 64, 64)] * 3, set()) == once

    def test_total_accumulates(self):
        tuner = Autotuner(paper_config(1))
        first = tuner.epoch_cost([(256, 256, 256)], set())
        second = tuner.epoch_cost([(512, 512, 512)], set())
        tuned: set = set()
        assert tuner.epoch_cost(
            [(256, 256, 256), (512, 512, 512)], tuned
        ) == first + second
        assert len(tuned) == 2

    def test_reset(self):
        # The tuner keeps nothing between charges: a new run (an empty
        # tuned set) pays again.
        tuner = Autotuner(paper_config(1))
        first = tuner.epoch_cost([(64, 64, 64)], set())
        assert tuner.epoch_cost([(64, 64, 64)], set()) == first > 0.0

    def test_skinny_shapes_prune_candidates(self):
        # A skinny problem tunes fewer (and cheaper) variants than a
        # large square one of comparable FLOPs.
        tuner = Autotuner(paper_config(1))
        skinny = tuner.epoch_cost([(4, 1 << 16, 1024)], set())
        square = tuner.epoch_cost([(512, 512, 1024)], set())
        assert skinny > 0 and square > 0
