"""Unit tests for repro.kernels.gemm."""

import pytest

from repro.errors import KernelSelectionError
from repro.hw.config import paper_config
from repro.kernels.gemm import GEMM_VARIANTS, build_gemm, gemm, gemm_variants
from tests.conftest import one_row


class TestBuildGemm:
    def test_flops_padded(self):
        variant = GEMM_VARIANTS[0]  # 128x128
        inv = build_gemm(variant, 100, 100, 64)
        # Padded to one 128x128 tile.
        assert inv.flops == 2 * 128 * 128 * 64

    def test_exact_tile_no_edge_suffix(self):
        variant = GEMM_VARIANTS[0]
        inv = build_gemm(variant, 128, 256, 64)
        assert not inv.name.endswith("_edge")

    def test_ragged_tile_edge_suffix(self):
        variant = GEMM_VARIANTS[0]
        inv = build_gemm(variant, 129, 256, 64)
        assert inv.name.endswith("_edge")

    def test_write_bytes_logical(self):
        inv = build_gemm(GEMM_VARIANTS[0], 100, 100, 64)
        assert inv.work.traffic.write_bytes == 100 * 100 * 4

    def test_shape_recorded(self):
        inv = build_gemm(GEMM_VARIANTS[3], 10, 20, 30)
        assert inv.shape == (10, 20, 30)
        assert inv.op == "gemm"

    def test_invalid_dims_rejected(self):
        with pytest.raises(KernelSelectionError):
            build_gemm(GEMM_VARIANTS[0], 0, 10, 10)

    def test_l2_reuse_grows_with_tiling_redundancy(self):
        variant = GEMM_VARIANTS[0]
        small = build_gemm(variant, 128, 128, 512)   # single tile: no re-reads
        large = build_gemm(variant, 4096, 4096, 512)  # many tiles re-read panels
        assert large.work.traffic.l2_reuse_fraction > small.work.traffic.l2_reuse_fraction


class TestSelection:
    def test_selects_fastest_variant(self, device1):
        config = paper_config(1)
        chosen = gemm(4096, 4096, 1024, config)
        chosen_time = one_row(device1.run_batch, chosen.work).time_s
        for candidate in gemm_variants(4096, 4096, 1024):
            assert chosen_time <= one_row(device1.run_batch, candidate.work).time_s + 1e-12

    def test_large_problems_prefer_large_tiles(self):
        config = paper_config(1)
        inv = gemm(8192, 8192, 1024, config)
        assert "MT128x128" in inv.name

    def test_skinny_problems_prefer_small_tiles(self):
        config = paper_config(1)
        inv = gemm(29, 25728, 1600, config)  # DS2 classifier
        assert "MT128" not in inv.name.split("_Bljk")[-1].split("x")[0] or True
        # The M dimension of the chosen tile cannot exceed 32 usefully.
        tile = inv.name.split("MT")[1]
        tile_m = int(tile.split("x")[0])
        assert tile_m <= 32

    def test_selection_varies_with_shape(self):
        config = paper_config(1)
        names = {
            gemm(m, 4096, 1024, config).name for m in (16, 64, 512, 8192)
        }
        assert len(names) > 1

    def test_selection_deterministic(self):
        config = paper_config(1)
        assert gemm(640, 640, 640, config) == gemm(640, 640, 640, config)

    def test_group_propagated(self):
        inv = gemm(64, 64, 64, paper_config(1), group="GEMM-2")
        assert inv.group == "GEMM-2"


class TestVariantFamily:
    def test_all_variants_distinct_names(self):
        names = [v.name for v in GEMM_VARIANTS]
        assert len(names) == len(set(names))

    def test_efficiency_ladder(self):
        # Bigger tiles issue at least as efficiently as the smallest.
        assert GEMM_VARIANTS[0].issue_efficiency == max(
            v.issue_efficiency for v in GEMM_VARIANTS
        )

    def test_menu_covers_all_variants(self):
        menu = gemm_variants(256, 256, 256)
        assert len(menu) == len(GEMM_VARIANTS)
