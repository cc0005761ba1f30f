"""Integration tests: the paper's tables, regenerated and checked cell by
cell (small table geometry for speed; the benchmarks run the full sizes)."""

import pytest

from repro.casestudy import experiments, targets
from repro.casestudy.figure4 import figure4 as run_figure4
from repro.casestudy.layout import branch_block_summary
from repro.core.observers import AccessKind

I, D = AccessKind.INSTRUCTION, AccessKind.DATA


class TestFigure7:
    def test_figure7a_all_cells(self):
        result = experiments.figure7a()
        assert result.all_match, result.format()

    def test_figure7b_all_cells(self):
        result = experiments.figure7b()
        assert result.all_match, result.format()

    def test_figure7b_proves_dcache_silence(self):
        result = experiments.figure7b()
        assert result.analysis.report.is_non_interferent(D, "address")

    def test_countermeasure_closes_dcache_leak(self):
        """The paper's headline for §8.3: 1.5.2 leaks through the data
        cache, 1.5.3 does not."""
        vulnerable = experiments.figure7a()
        fixed = experiments.figure7b()
        assert vulnerable.cell("D-Cache", "address").measured_bits == 1.0
        assert fixed.cell("D-Cache", "address").measured_bits == 0.0


class TestFigure8:
    def test_figure8_all_cells(self):
        result = experiments.figure8()
        assert result.all_match, result.format()

    def test_optimization_level_changes_verdict(self):
        """Figures 7b vs 8: the same source is safe at -O2/64B and leaky at
        -O0/32B — the compilation-dependence the paper highlights."""
        safe = experiments.figure7b()
        leaky = experiments.figure8()
        assert safe.cell("I-Cache", "b-block").measured_bits == 0.0
        assert leaky.cell("I-Cache", "b-block").measured_bits == 1.0
        assert safe.cell("D-Cache", "address").measured_bits == 0.0
        assert leaky.cell("D-Cache", "address").measured_bits == 1.0


class TestFigure14:
    def test_figure14a_all_cells(self):
        result = experiments.figure14a()
        assert result.all_match, result.format()

    def test_figure14b_zero_leakage(self):
        result = experiments.figure14b(nlimbs=8)
        assert result.all_match, result.format()

    def test_figure14c_small_geometry(self):
        nbytes = 32
        result = experiments.figure14c(nbytes=nbytes)
        assert result.all_match, result.format()
        assert result.cell("D-Cache", "address").measured_bits == 3.0 * nbytes
        assert result.cell("D-Cache", "block").measured_bits == 0.0

    def test_figure14d_zero_leakage(self):
        result = experiments.figure14d(nbytes=16)
        assert result.all_match, result.format()

    def test_cachebleed_bank_leak(self):
        nbytes = 32
        measured, expected = experiments.cachebleed_bank_analysis(nbytes=nbytes)
        assert measured == expected == 1.0 * nbytes

    def test_scatter_half_is_block_safe(self):
        """Extension: the scatter (store) side collapses at block level too."""
        result = targets.scatter_target(nbytes=16).analyze()
        assert result.report.bits(D, "block") == 0.0
        assert result.report.bits(D, "address") == 3.0 * 16


class TestFigure15:
    def test_bblock_leak_depends_on_opt_level(self):
        effect = experiments.figure15_effect()
        assert effect[2] == 1.0  # -O2: out-of-line arm, A-B-A pattern
        assert effect[1] == 0.0  # -O1: both arms inline, leak eliminated

    def test_branch_block_summary_fig15(self):
        """Concrete runs confirm the caption: at -O2 some block is fetched
        only for some secrets; at -O1 the stuttering traces coincide."""
        o2 = branch_block_summary(targets.lookup_target(opt_level=2))
        o1 = branch_block_summary(targets.lookup_target(opt_level=1))
        assert o2.distinguishable
        assert not o1.distinguishable

    def test_o2_leak_is_order_based(self):
        """Figure 15a: the -O2 leak is the A-B-A fetch *order* (the cold arm
        returns to an already-fetched block), not an exclusive block."""
        summary = branch_block_summary(targets.lookup_target(opt_level=2))
        taken = summary.per_secret[0]
        fallthrough = summary.per_secret[1]
        assert set(taken) == set(fallthrough)  # same blocks...
        assert taken != fallthrough            # ...in a different order


class TestFigure9:
    def test_branch_blocks_sqam(self):
        """Figure 9: -O2/64B stuttering traces coincide; -O0/32B differ."""
        safe = branch_block_summary(targets.sqam_target(opt_level=2, line_bytes=64))
        leaky = branch_block_summary(targets.sqam_target(opt_level=0, line_bytes=32))
        assert not safe.distinguishable
        assert leaky.distinguishable

    def test_o0_leak_is_an_exclusive_block(self):
        """Figure 9b: at -O0 the taken arm owns a 32-byte block the
        fall-through never fetches."""
        summary = branch_block_summary(targets.sqam_target(opt_level=0, line_bytes=32))
        assert summary.blocks_exclusive_to(1)

    def test_formatting(self):
        summary = branch_block_summary(targets.sqam_target(opt_level=0, line_bytes=32))
        text = summary.format()
        assert "secret=0" in text and "secret=1" in text


class TestFigure4:
    def test_counts(self):
        result = run_figure4()
        assert result.address_count == 2
        assert result.block_count == 2
        assert result.block_stuttering_count == 1

    ADDRESS_DOT = "\n".join([
        "digraph trace {",
        '  v0 [label="r"];',
        "  v1 [label=\"('const', 134512640) x1\"];",
        "  v0 -> v1;",
        "  v2 [label=\"('const', 134512642) x1\"];",
        "  v1 -> v2;",
        "  v3 [label=\"('const', 134512644) x1\"];",
        "  v2 -> v3;",
        "  v4 [label=\"('const', 134512646) x1\"];",
        "  v3 -> v4;",
        "  v5 [label=\"('const', 134512648) x1\"];",
        "  v4 -> v5;",
        "  v6 [label=\"('const', 134512650) x1\"];",
        "  v2 -> v6;",
        "  v5 -> v6;",
        "  v7 [label=\"('const', 134512653) x1\"];",
        "  v6 -> v7;",
        "}",
    ])

    @staticmethod
    def _block_dot(first_run, second_run):
        return "\n".join([
            "digraph trace {",
            '  v0 [label="r"];',
            f"  v1 [label=\"('const', 2101760) x{first_run}\"];",
            "  v0 -> v1;",
            f"  v2 [label=\"('const', 2101760) x{second_run}\"];",
            "  v0 -> v2;",
            "}",
        ])

    BLOCK_STUTTER_DOT = "\n".join([
        "digraph trace {",
        '  v0 [label="r"];',
        "  v1 [label=\"('const', 2101760)\"];",
        "  v0 -> v1;",
        "}",
    ])

    def test_dot_outputs(self):
        result = run_figure4()
        assert result.address_dot == self.ADDRESS_DOT
        # The two final runs of block A commit in the iteration order of
        # the merged cursor, which follows the (per-process randomized)
        # string hashes of the labels: either run may take id 1.
        assert result.block_dot in (self._block_dot(4, 7),
                                    self._block_dot(7, 4))
        assert result.block_stutter_dot == self.BLOCK_STUTTER_DOT


class TestValidationAgainstVM:
    """Theorem 1, executable, on the real case-study binaries."""

    @pytest.mark.parametrize("make_target,layouts", [
        (lambda: targets.sqm_target(), [
            {"rp": 0x9000000, "bp": 0x9010000, "mp": 0x9020000},
            {"rp": 0x9000040, "bp": 0x9011100, "mp": 0x9022220},
        ]),
        (lambda: targets.sqam_target(), [
            {"rp": 0x9000000, "tmp": 0x9008000, "bp": 0x9010000, "mp": 0x9020000},
        ]),
        (lambda: targets.sqam_target(opt_level=0, line_bytes=32), [
            {"rp": 0x9000000, "tmp": 0x9008000, "bp": 0x9010000, "mp": 0x9020000},
        ]),
        (lambda: targets.lookup_target(), [
            {"bp": 0x9000000, "bsize": 0x9000100},
        ]),
        (lambda: targets.gather_target(nbytes=16), [
            {"r": 0x9000000, "buf": 0x9010000},
            {"r": 0x9000004, "buf": 0x9010039},
        ]),
        (lambda: targets.defensive_gather_target(nbytes=8), [
            {"r": 0x9000000, "buf": 0x9010000},
        ]),
        (lambda: targets.secure_retrieve_target(nlimbs=4), [
            {"r": 0x9000000, "p": 0x9010000},
        ]),
    ])
    def test_bounds_dominate_concrete_views(self, make_target, layouts):
        from repro.analysis.validation import ConcreteValidator

        target = make_target()
        result = target.analyze()
        validator = ConcreteValidator(target.image, target.spec)
        outcome = validator.check(result, layouts)
        assert outcome.ok, outcome.violations
        assert outcome.checked > 0
