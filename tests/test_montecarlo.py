import zlib
from itertools import combinations

import numpy as np
import pytest

from bootgrid import (
    Configuration,
    Estimate,
    GridSpec,
    RuleFamily,
    Stream,
    closure_naive,
    derive_seed,
    estimate_pc,
    fill_probability,
    fill_probability_exact,
    fill_success_counts,
    make_rule,
    random_configuration,
)
from bootgrid import GrowthEventSpec, estimate_growth_mc
from bootgrid.montecarlo import draw_occupancy, sample_estimate, subset_success_counts
from reference import ref_subset_success_counts

STD2 = make_rule(RuleFamily.standard(2))


def exact_root_2x2(target=0.5, tol=1e-12):
    """Deterministic bisection of the exact 2x2 fill polynomial
    p^4 + 4p^3(1-p) + 2p^2(1-p)^2 = target."""

    def f(p):
        return p**4 + 4 * p**3 * (1 - p) + 2 * p**2 * (1 - p) ** 2 - target

    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestEstimateType:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            Estimate(mean=0.5, stderr=0.1, trials=0, seed=1)

    def test_rejects_negative_stderr(self):
        with pytest.raises(ValueError):
            Estimate(mean=0.5, stderr=-0.1, trials=10, seed=1)


class TestFillProbability:
    def test_p_zero(self):
        est = fill_probability(STD2, GridSpec((4, 4)), 0.0, 200, seed=1)
        assert est.mean == 0.0

    def test_p_one(self):
        est = fill_probability(STD2, GridSpec((4, 4)), 1.0, 200, seed=1)
        assert est.mean == 1.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            fill_probability(STD2, GridSpec((4, 4)), 1.5, 10, seed=0)
        with pytest.raises(ValueError):
            fill_probability(STD2, GridSpec((4, 4)), 0.5, 0, seed=0)

    def test_2x2_within_3_sigma_of_exact(self):
        grid = GridSpec((2, 2))
        est = fill_probability(STD2, grid, 0.5, 100_000, seed=8)
        assert abs(est.mean - 7 / 16) <= 3.0 * est.stderr

    def test_thread_count_does_not_change_results(self):
        grid = GridSpec((8, 8))
        a = fill_probability(STD2, grid, 0.25, 5000, seed=3, threads=1)
        b = fill_probability(STD2, grid, 0.25, 5000, seed=3, threads=4)
        c = fill_probability(STD2, grid, 0.25, 5000, seed=3, threads=8)
        assert a == b == c

    def test_batch_path_matches_per_trial_reconstruction(self):
        # 70 cells goes through the stacked-batch closure; rebuild every
        # trial one by one from its stream and compare exactly.
        from bootgrid.montecarlo import _BATCH_CELL_LIMIT, _STREAM_DOMAIN
        from bootgrid.rules import closure_fast

        assert _BATCH_CELL_LIMIT >= 70  # guard: adjust test if tuning changes
        grid = GridSpec((7, 10))
        est = fill_probability(STD2, grid, 0.35, 600, seed=4)
        root = Stream((4, _STREAM_DOMAIN))
        succ = 0
        for i in range(600):
            cfg = random_configuration(grid, 0.35, root.child(i))
            succ += closure_fast(cfg, STD2).is_full()
        assert est.mean == succ / 600

    def test_block_drawn_in_several_parts(self):
        # 1200 cells: uniforms are drawn 54 trials at a time, so the one
        # block of 150 trials takes three draws; its third lane word is
        # partly idle.
        from bootgrid.montecarlo import _STREAM_DOMAIN
        from bootgrid.rules import closure_fast

        grid = GridSpec((40, 30))
        est = fill_probability(STD2, grid, 0.07, 150, seed=6)
        root = Stream((6, _STREAM_DOMAIN))
        succ = sum(
            closure_fast(random_configuration(grid, 0.07, root.child(i)), STD2).is_full()
            for i in range(150)
        )
        assert 0 < succ < 150
        assert est.mean == succ / 150

    def test_block_size_does_not_change_results(self, monkeypatch):
        import bootgrid.montecarlo as mc

        grid = GridSpec((7, 10))
        whole = fill_probability(STD2, grid, 0.35, 1000, seed=4)
        monkeypatch.setattr(mc, "_chunk_size", lambda *args: 64)
        assert fill_probability(STD2, grid, 0.35, 1000, seed=4) == whole
        assert fill_probability(STD2, grid, 0.35, 1000, seed=4, threads=3) == whole

    def test_threaded_runs_split_into_a_block_per_thread(self):
        from bootgrid.montecarlo import _chunk_size

        for cells, trials, threads in [(64, 5000, 4), (36, 2000, 3), (256, 2000, 8), (4096, 200, 2)]:
            chunk = _chunk_size(cells, trials, threads)
            assert chunk % 64 == 0
            assert -(-trials // chunk) >= threads
        assert _chunk_size(4096, 32, 1) == 64
        assert _chunk_size(64, 5000, 0) == _chunk_size(64, 5000, 1)

    def test_queue_path_matches_per_trial_reconstruction(self):
        # 4900 cells exceeds the batch limit, exercising the per-trial
        # closure_fast path; reconstruct with the naive closure instead.
        from bootgrid.montecarlo import _BATCH_CELL_LIMIT, _STREAM_DOMAIN
        from bootgrid.rules import closure_naive

        grid = GridSpec((70, 70))
        assert grid.cells > _BATCH_CELL_LIMIT
        est = fill_probability(STD2, grid, 0.15, 40, seed=19)
        root = Stream((19, _STREAM_DOMAIN))
        succ = 0
        for i in range(40):
            cfg = random_configuration(grid, 0.15, root.child(i))
            succ += closure_naive(cfg, STD2).is_full()
        assert est.mean == succ / 40

    def test_per_trial_path_runs_on_one_thread(self, monkeypatch):
        # closure_fast holds the GIL, so a second thread would only wait:
        # 40 trials of 4900 cells are four blocks, and none goes to a pool.
        import bootgrid.montecarlo as mc

        grid = GridSpec((70, 70))
        one = fill_probability(STD2, grid, 0.15, 40, seed=19, threads=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool started on the per-trial path")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
        assert -(-40 // mc._chunk_size(grid.cells, 40, 2)) > 1
        assert fill_probability(STD2, grid, 0.15, 40, seed=19, threads=2) == one

    def test_coupled_monotone_in_p(self):
        grid = GridSpec((6, 6))
        a = fill_probability(STD2, grid, 0.30, 4000, seed=11)
        b = fill_probability(STD2, grid, 0.35, 4000, seed=11)
        assert a.mean <= b.mean  # exact, by coupling


class TestSampleEstimate:
    """The one sampling loop behind fill and growth estimates."""

    @staticmethod
    def all_occupied(occ):
        return int(occ.all(axis=1).sum())

    def test_counts_match_a_per_trial_reconstruction(self, monkeypatch):
        import bootgrid.montecarlo as mc

        root = Stream((5, 77))
        want = sum(bool((root.child(i).uniforms(3) < 0.6).all()) for i in range(500))
        est = sample_estimate(self.all_occupied, 3, 0.6, 500, seed=5, domain=77)
        assert est == Estimate(want / 500, (want / 500 * (1 - want / 500) / 500) ** 0.5, 500, 5)
        monkeypatch.setattr(mc, "_chunk_size", lambda *args: 64)
        assert sample_estimate(self.all_occupied, 3, 0.6, 500, seed=5, domain=77, threads=3) == est

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, t: sample_estimate(lambda occ: 0, 4, p, t, seed=0, domain=1),
            lambda p, t: fill_probability(STD2, GridSpec((4, 4)), p, t, seed=0),
            lambda p, t: estimate_growth_mc(GrowthEventSpec("north_rows", 3), p, t, seed=0),
        ],
        ids=["sampler", "fill", "growth"],
    )
    def test_p_is_checked_before_trials(self, call):
        for p in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
                call(p, 0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            call(0.5, 0)


class TestDrawOccupancy:
    def test_counter_range_matches_the_whole_stream(self):
        root = Stream((8, 3))
        whole = root.uniform_block(4, 3, 150)
        assert np.array_equal(root.uniform_block(4, 3, 100, 50), whole[:, 50:])
        assert np.array_equal(root.uniform_block(4, 3, 150, 0), whole)
        assert np.array_equal(whole[1], root.child(5).uniforms(150))

    def test_large_trial_is_drawn_in_bounded_pieces(self, monkeypatch):
        # A trial of more than 2^16 cells is drawn in pieces of at most 2^16
        # uniforms, bit-identical to drawing each trial at once.
        cells, root = (1 << 16) + 1000, Stream((2, 9))
        want = root.uniform_block(3, 2, cells) < 0.3
        sizes = []
        draw = Stream.uniform_block

        def spy(self, first_child, n_children, count, first=0):
            sizes.append(n_children * count)
            return draw(self, first_child, n_children, count, first)

        monkeypatch.setattr(Stream, "uniform_block", spy)
        assert np.array_equal(draw_occupancy(root, 3, 2, cells, 0.3), want)
        assert sizes == [1 << 16, 1000, 1 << 16, 1000]


class TestStreamKeys:
    """Key parts outside [0, 2^64) are refused: reduced mod 2^64 they would
    share the stream of another key (seed -1 drew seed 2^64 - 1's trials)."""

    @pytest.mark.parametrize("part", [-1, 1 << 64, -(1 << 64), (1 << 70) + 3])
    def test_out_of_range_parts_are_refused(self, part):
        message = r"stream key parts must lie in \[0, 2\^64\)"
        for draw in (
            lambda: Stream(part).uniforms(4),
            lambda: Stream((7, part)).uniform_block(0, 2, 4),
            lambda: Stream(7).child(part).uniforms(4),
            lambda: derive_seed(part),
            lambda: derive_seed(7, part),
            lambda: fill_probability(STD2, GridSpec((4, 4)), 0.5, 10, seed=part),
            lambda: estimate_growth_mc(GrowthEventSpec("east_column", 3), 0.5, 10, seed=part),
        ):
            with pytest.raises(ValueError, match=message):
                draw()

    def test_range_ends_are_distinct_streams(self):
        top = (1 << 64) - 1
        assert not np.array_equal(Stream(0).uniforms(8), Stream(top).uniforms(8))
        assert derive_seed(top, 0) != derive_seed(0, 0) and 0 <= derive_seed(top, top) <= top
        est = fill_probability(STD2, GridSpec((4, 4)), 0.5, 10, seed=top)
        assert est.seed == top


class TestFillExact:
    def test_2x2_polynomial(self):
        counts = fill_success_counts(STD2, GridSpec((2, 2)))
        assert counts.tolist() == [0, 0, 2, 4, 1]

    def test_2x2_value_matches_formula(self):
        grid = GridSpec((2, 2))
        for p in (0.2, 0.5, 0.8):
            formula = p**4 + 4 * p**3 * (1 - p) + 2 * p**2 * (1 - p) ** 2
            assert fill_probability_exact(STD2, grid, p) == pytest.approx(formula, rel=1e-12)

    def test_half_ifs_7_16(self):
        assert fill_probability_exact(STD2, GridSpec((2, 2)), 0.5) == pytest.approx(7 / 16)

    def test_1x1_is_p(self):
        grid = GridSpec((1, 1))
        for p in (0.0, 0.3, 1.0):
            assert fill_probability_exact(STD2, grid, p) == pytest.approx(p)

    def test_p_one(self):
        assert fill_probability_exact(STD2, GridSpec((2, 2)), 1.0) == pytest.approx(1.0)

    def test_refuses_large_grids(self):
        with pytest.raises(ValueError):
            fill_success_counts(STD2, GridSpec((5, 5)))

    def test_mc_converges_to_exact_on_small_grids(self):
        cases = [
            (STD2, (2, 2), 0.4),
            (STD2, (3, 3), 0.3),
            (STD2, (4, 4), 0.35),
            (STD2, (1, 1), 0.6),
            (STD2, (5, 4), 0.3),
            (make_rule(RuleFamily.one_two()), (6, 3), 0.45),
            (make_rule(RuleFamily.modified(2)), (4, 5), 0.5),
            (make_rule(RuleFamily.standard(3)), (2, 3, 3), 0.4),
            (make_rule(RuleFamily.abc(1, 1, 2)), (2, 2, 5), 0.55),
        ]
        for rule, dims, p in cases:
            grid = GridSpec(dims)
            exact = fill_probability_exact(rule, grid, p)
            est = fill_probability(rule, grid, p, 40_000, seed=17)
            sigma = max(est.stderr, (exact * (1 - exact) / est.trials) ** 0.5)
            assert abs(est.mean - exact) <= 3.0 * max(sigma, 1e-9)

    def test_modified_rule_exact_path(self):
        rule = make_rule(RuleFamily.modified(2))
        grid = GridSpec((2, 2))
        # modified on 2x2 open: an empty cell needs occupied neighbours on
        # both axes, i.e. both orthogonal cells; same subsets fill as standard2
        assert fill_success_counts(rule, grid).tolist() == [0, 0, 2, 4, 1]


def subset_counts_by_naive(rule, grid, free, target):
    """subset_success_counts by closure_naive of each subset in turn."""
    counts = np.zeros(len(free) + 1, dtype=np.int64)
    for k in range(len(free) + 1):
        for subset in combinations(free, k):
            occ = np.ones(grid.cells, dtype=bool)
            occ[np.setdiff1d(free, subset)] = False
            closed = closure_naive(Configuration(grid, occ.reshape(grid.shape)), rule)
            counts[k] += closed.cells.reshape(-1)[target].all()
    return counts


class TestSubsetSuccessCounts:
    """Fewer than 64 subsets leave idle lanes in the only word; they must
    not be counted.  The targets are not the free cells: some target cells
    are free and the others are held occupied."""

    @pytest.mark.parametrize(
        "name, dims, boundary",
        [
            ("12", (4, 3), "open"),
            ("standard2", (3, 3), "periodic"),
            ("modified2", (3, 4), "open"),
            ("duarte", (3, 3), "open"),
            ("abc:1,1,2", (2, 2, 3), "open"),
        ],
    )
    def test_matches_naive_for_0_to_7_free_cells(self, name, dims, boundary):
        rule = make_rule(RuleFamily.parse(name))
        grid = GridSpec(dims, boundary)
        order = np.argsort(Stream((zlib.crc32(name.encode()),)).uniforms(grid.cells))
        mixed = 0  # free-cell counts with both hitting and missing subsets
        for m in range(8):
            free, target = order[:m], order[m // 2 : m // 2 + 3]
            want = subset_counts_by_naive(rule, grid, free, target)
            assert subset_success_counts(rule, grid, free, target).tolist() == want.tolist()
            mixed += 0 < want.sum() < 2**m
        assert mixed


ONE_TWO = make_rule(RuleFamily.one_two())

# 2D and 3D grids of 6 and 7 cells (one word), 12 cells (64 words, one
# block) and 18 cells (4096 words: a first block of 512 and three doubling
# ranges after it).
FILL_DIMS = {
    2: [(3, 2), (7, 1), (4, 3), (6, 3)],
    3: [(3, 2, 1), (7, 1, 1), (3, 2, 2), (3, 3, 2)],
}


class TestMonotoneSkip:
    """subset_success_counts closes only the words whose hits are not
    already decided by monotonicity; its counts must equal those of closing
    every word (reference.ref_subset_success_counts)."""

    @pytest.mark.parametrize(
        "direction, size",
        [("north_rows", x) for x in range(1, 12)] + [("east_column", n) for n in range(1, 21)],
    )
    def test_growth_events_match_closing_every_word(self, direction, size):
        grid, helpers, targets = GrowthEventSpec(direction, size).layout()
        want = ref_subset_success_counts(ONE_TWO, grid, helpers, targets)
        assert subset_success_counts(ONE_TWO, grid, helpers, targets).tolist() == want.tolist()

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize(
        "name", ["standard2", "standard3", "modified2", "12", "1b:3", "duarte", "abc:1,1,2"]
    )
    def test_fill_counts_match_closing_every_word(self, name, boundary):
        rule = make_rule(RuleFamily.parse(name))
        for dims in FILL_DIMS[rule.dimension]:
            grid = GridSpec(dims, boundary)
            every = np.arange(grid.cells)
            want = ref_subset_success_counts(rule, grid, every, every)
            assert fill_success_counts(rule, grid).tolist() == want.tolist(), dims

    @pytest.mark.parametrize(
        "direction, size, most",
        [("north_rows", 10, 1 / 4), ("east_column", 20, 1 / 50)],
    )
    def test_closes_only_the_open_words(self, monkeypatch, direction, size, most):
        import bootgrid.montecarlo as mc

        grid, helpers, targets = GrowthEventSpec(direction, size).layout()
        closed, kernel = [], mc.closure_lanes

        def spy(words, rule, periodic=False):
            closed.append(words.size // grid.cells)
            return kernel(words, rule, periodic)

        monkeypatch.setattr(mc, "closure_lanes", spy)
        counts = subset_success_counts(ONE_TWO, grid, helpers, targets)
        words = 2 ** (len(helpers) - 6)
        assert 0 < sum(closed) < most * words
        assert counts.sum() > 0


class TestEstimatePc:
    def test_1x1_identity_curve(self):
        est = estimate_pc(STD2, GridSpec((1, 1)), p_tolerance=1e-4,
                          trials_per_probe=40_000, seed=12)
        # fill(p) = p exactly, so pc is the empirical median of the trial
        # uniforms; quantile noise is ~ sqrt(0.25/T)
        noise = 3.0 * (0.25 / 40_000) ** 0.5
        assert abs(est.mean - 0.5) <= est.stderr + noise

    def test_2x2_against_exact_polynomial_root(self):
        root = exact_root_2x2()
        est = estimate_pc(STD2, GridSpec((2, 2)), p_tolerance=1e-4,
                          trials_per_probe=40_000, seed=13)
        slope = 4 * root - 4 * root**3  # derivative of the exact fill curve
        noise = 3.0 * (0.25 / 40_000) ** 0.5 / slope
        assert abs(est.mean - root) <= est.stderr + noise

    def test_probe_doubling_stability(self):
        a = estimate_pc(STD2, GridSpec((2, 2)), p_tolerance=1e-3,
                        trials_per_probe=4000, seed=21)
        b = estimate_pc(STD2, GridSpec((2, 2)), p_tolerance=1e-3,
                        trials_per_probe=8000, seed=21)
        assert abs(a.mean - b.mean) <= 0.05

    def test_thread_invariance(self):
        a = estimate_pc(STD2, GridSpec((6, 6)), p_tolerance=1e-3,
                        trials_per_probe=2000, seed=5, threads=1)
        b = estimate_pc(STD2, GridSpec((6, 6)), p_tolerance=1e-3,
                        trials_per_probe=2000, seed=5, threads=4)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_pc(STD2, GridSpec((2, 2)), target=1.5)
        with pytest.raises(ValueError):
            estimate_pc(STD2, GridSpec((2, 2)), p_tolerance=0.0)
        for tol in (1.0, 2.0, -0.5):  # at 1 or more no probe would run
            with pytest.raises(ValueError, match="p_tolerance"):
                estimate_pc(STD2, GridSpec((2, 2)), p_tolerance=tol)

    def test_refuses_tolerance_below_double_spacing(self, monkeypatch):
        # Below 2**-53 the bracket can reach two adjacent doubles wider
        # than the tolerance, and bisection would never end.  A counted
        # fill_probability makes a run that does not stop fail instead.
        import bootgrid.montecarlo as mc

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            if len(calls) > 60:
                raise RuntimeError("estimate_pc made more than 60 probes")
            return fill_probability(*args, **kwargs)

        monkeypatch.setattr(mc, "fill_probability", counted)
        for tol in (1e-20, 2**-54):
            with pytest.raises(ValueError, match=r"p_tolerance must be at least 2\*\*-53"):
                estimate_pc(STD2, GridSpec((2, 2)), p_tolerance=tol, trials_per_probe=4, seed=1)
        assert not calls
        est = estimate_pc(STD2, GridSpec((2, 2)), p_tolerance=2**-53, trials_per_probe=4, seed=1)
        assert est.stderr <= 2**-54 and len(calls) <= 60

    def test_trials_count_every_probe(self):
        est = estimate_pc(STD2, GridSpec((2, 2)), p_tolerance=0.3, trials_per_probe=50, seed=1)
        assert est.trials == 2 * 50  # widths 1 -> 0.5 -> 0.25

    def test_stderr_is_bracket_half_width(self):
        est = estimate_pc(STD2, GridSpec((2, 2)), p_tolerance=1e-2,
                          trials_per_probe=500, seed=2)
        assert est.stderr <= 1e-2 / 2 + 1e-12

    def test_threshold_shrinks_with_system_size(self):
        # finite-size monotonicity: p_c(32) <= p_c(16) within combined error
        a = estimate_pc(STD2, GridSpec((16, 16)), p_tolerance=5e-3,
                        trials_per_probe=1200, seed=61)
        b = estimate_pc(STD2, GridSpec((32, 32)), p_tolerance=5e-3,
                        trials_per_probe=1200, seed=62)
        # quantile noise of the crossing, with a conservative slope bound
        noise = 3.0 * (0.25 / 1200) ** 0.5 / 5.0
        assert b.mean <= a.mean + a.stderr + b.stderr + noise


class TestDimensionMismatch:
    """A grid whose dimension differs from the rule's is refused on every
    path, whatever its size: the lane kernel would read a batch axis as a
    grid axis and return made-up numbers."""

    MESSAGE = "rule dimension 2 does not match grid dimension 1"

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fill_probability(STD2, GridSpec((4,)), 0.5, 10, seed=0),
            lambda: fill_probability(STD2, GridSpec((5000,)), 0.5, 2, seed=0),
            lambda: fill_success_counts(STD2, GridSpec((4,))),
            lambda: subset_success_counts(STD2, GridSpec((4,)), np.arange(4), np.arange(4)),
            lambda: estimate_pc(STD2, GridSpec((8,)), p_tolerance=0.1, trials_per_probe=10),
        ],
        ids=["fill", "fill_per_trial", "exact_counts", "subsets", "pc"],
    )
    def test_lower_dimensional_grid_is_refused(self, call):
        with pytest.raises(ValueError, match=self.MESSAGE):
            call()

    def test_higher_dimensional_grid_is_refused(self):
        with pytest.raises(ValueError, match="rule dimension 1 does not match grid dimension 2"):
            fill_probability_exact(make_rule(RuleFamily.standard(1)), GridSpec((2, 2)), 0.5)

