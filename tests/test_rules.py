import re
import zlib
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootgrid import (
    Configuration,
    GridSpec,
    Rect,
    Rule,
    RuleFamily,
    Stream,
    checkerboard_rect,
    closure_batch,
    closure_fast,
    closure_lanes,
    closure_naive,
    empty_configuration,
    fill_probability,
    full_configuration,
    make_rule,
    occupy_rect,
    random_configuration,
    step,
)
from bootgrid.montecarlo import _STREAM_DOMAIN
from bootgrid.rules import (
    _CHECK_EVERY,
    _CHECKED_STEPS,
    _FAMILIES,
    _landing_offsets,
    _step_form,
    _step_ops,
    pack_lanes,
    unpack_lanes,
)
from reference import ref_closure, ref_family_name, ref_make_rule, ref_step

ALL_FAMILIES = [
    RuleFamily.parse("standard2"),
    RuleFamily.parse("standard3"),
    RuleFamily.parse("modified2"),
    RuleFamily.parse("12"),
    RuleFamily.parse("1b:3"),
    RuleFamily.parse("duarte"),
    RuleFamily.parse("abc:1,1,2"),
]


def family_grid(family, boundary="open", small=False):
    if make_rule(family).dimension == 3:
        return GridSpec((4, 4, 4) if small else (6, 6, 6), boundary)
    return GridSpec((6, 5) if small else (12, 12), boundary)


class TestMakeRule:
    def test_one_two_shape(self):
        r = make_rule(RuleFamily.parse("12"))
        assert len(r.offsets) == 6 and r.theta == 3
        assert set(r.offsets) == {(1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1)}

    def test_standard2(self):
        r = make_rule(RuleFamily.parse("standard2"))
        assert len(r.offsets) == 4 and r.theta == 2

    def test_standard3(self):
        r = make_rule(RuleFamily.parse("standard3"))
        assert len(r.offsets) == 6 and r.theta == 3 and r.dimension == 3

    def test_one_b2_is_one_two(self):
        assert make_rule(RuleFamily.parse("1b:2")) == make_rule(RuleFamily.parse("12"))

    def test_one_b1_is_standard2(self):
        a = make_rule(RuleFamily.parse("1b:1"))
        b = make_rule(RuleFamily.parse("standard2"))
        assert set(a.offsets) == set(b.offsets) and a.theta == b.theta

    def test_duarte(self):
        r = make_rule(RuleFamily.parse("duarte"))
        assert set(r.offsets) == {(0, 1), (1, 0), (0, -1)} and r.theta == 2

    def test_abc(self):
        r = make_rule(RuleFamily.parse("abc:1,2,3"))
        assert len(r.offsets) == 12 and r.theta == 6 and r.dimension == 3

    def test_modified(self):
        r = make_rule(RuleFamily.parse("modified3"))
        assert r.kind == "modified" and len(r.offsets) == 6

    @pytest.mark.parametrize(
        "offsets",
        [((5, 5),), ((1, 0), (-1, 0), (0, 1)), ((-1, 0), (1, 0), (0, 1), (0, -1))],
        ids=["far", "missing_unit", "reordered"],
    )
    def test_modified_refuses_offsets_other_than_the_unit_vectors(self, offsets):
        # The modified predicate reads the +1/-1 pair of each axis in turn;
        # any other stencil would be closed as if it were that one.
        with pytest.raises(ValueError, match="modified offsets must be the unit vectors"):
            Rule("modified", 2, offsets, 1)
        assert Rule("modified", 2, ((1, 0), (-1, 0), (0, 1), (0, -1)), 2) == make_rule(
            RuleFamily.parse("modified2")
        )

    @pytest.mark.parametrize(
        "kind, offsets, theta, message",
        [
            ("majority", ((1, 0),), 1, "rule kind must be threshold or modified"),
            ("threshold", ((1, 0), (0, 1, 0)), 1, r"offset \(0, 1, 0\) does not match dimension"),
            ("threshold", ((1, 0), (0, 0)), 1, "stencil offsets must be nonzero"),
            ("threshold", ((1, 0), (0, 1), (1, 0)), 1, r"duplicate stencil offset \(1, 0\)"),
            ("threshold", ((1, 0), (0, 1)), 0, r"theta 0 outside 1\.\.2"),
            ("threshold", ((1, 0), (0, 1)), 3, r"theta 3 outside 1\.\.2"),
        ],
        ids=["kind", "offset_length", "zero_offset", "repeated_offset", "theta_0", "theta_3"],
    )
    def test_rule_refuses_a_malformed_stencil(self, kind, offsets, theta, message):
        with pytest.raises(ValueError, match=message):
            Rule(kind, 2, offsets, theta)

    def test_invalid_families(self):
        with pytest.raises(ValueError):
            RuleFamily("standard", (4,))
        with pytest.raises(ValueError):
            RuleFamily("one_b", (0,))
        with pytest.raises(ValueError):
            RuleFamily("abc", (2, 1, 1))
        for kind, params in [("standard", ()), ("one_two", (3,)), ("duarte", (1,)),
                             ("abc", (1, 2)), ("two_one", ())]:
            with pytest.raises(ValueError):
                RuleFamily(kind, params)

    def test_parse_names(self):
        for fam in ALL_FAMILIES:
            assert RuleFamily.parse(fam.name) == fam
        with pytest.raises(ValueError):
            RuleFamily.parse("standard9")
        with pytest.raises(ValueError):
            RuleFamily.parse("abc:1,2")


# Each family at the edges of its parameter range, in canonical spelling.
TABLE_NAMES = [
    "standard1", "standard2", "standard3", "modified1", "modified2", "modified3", "12",
    "1b:1", "1b:2", "1b:64", "1b:130", "duarte", "abc:1,1,1", "abc:1,2,3",
]


def check_family_against_oracle(family):
    rule = make_rule(family)
    assert rule == ref_make_rule(family)  # offsets compared in order
    assert _FAMILIES[family.kind].size(*family.params) == len(rule.offsets)
    assert family.name == ref_family_name(family)
    assert RuleFamily.parse(family.name) == family


class TestFamilyTable:
    @pytest.mark.parametrize("name", TABLE_NAMES)
    def test_canonical_names_match_the_oracle(self, name):
        family = RuleFamily.parse(name)
        assert family.name == name
        check_family_against_oracle(family)

    def test_axis_units_in_order(self):
        # The oracle builds these with the same _axis_units, so spell them out.
        assert make_rule(RuleFamily.parse("standard3")).offsets == (
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300))
    def test_one_b_matches_the_oracle(self, b):
        check_family_against_oracle(RuleFamily("one_b", (b,)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 12), min_size=3, max_size=3).map(sorted))
    def test_abc_matches_the_oracle(self, abc):
        check_family_against_oracle(RuleFamily("abc", abc))

    @pytest.mark.parametrize(
        "name",
        ["standard4", "standard02", "modified0", "123", "1b:", "1b:0", "1b: 3", "1b:03",
         "1b:+3", "1b:3,", "abc:1,2", "abc:2,1,3", "abc:1, 1, 2", "duarte1", "", "  "],
    )
    def test_other_spellings_are_refused(self, name):
        with pytest.raises(ValueError, match="unknown rule family"):
            RuleFamily.parse(name)

    @pytest.mark.parametrize("b", [2.7, 2.0, np.float64(3.0), "4", True, None])
    def test_parameters_are_integers(self, b):
        family = RuleFamily("one_b", (np.int64(3),))
        assert family == RuleFamily.parse("1b:3") and type(family.params[0]) is int
        message = f"a parameter of one_b must be an integer, got {re.escape(repr(b))}"
        with pytest.raises(ValueError, match=message):
            RuleFamily("one_b", (b,))
        with pytest.raises(ValueError, match="a parameter of abc must be an integer"):
            RuleFamily("abc", (1, 1, b))

    def test_surrounding_whitespace_is_stripped(self):
        assert RuleFamily.parse(" 1b:3\n") == RuleFamily.parse("1b:3")

    def test_large_parameters_build_no_rule(self):
        # The scaling laws take any b; only make_rule builds the stencil.
        assert RuleFamily.parse("1b:1000000000").name == "1b:1000000000"

    @pytest.mark.parametrize(
        "name, size",
        [("1b:65536", 131074), ("abc:1,1,65535", 131074), ("abc:21846,21846,21846", 131076)],
    )
    def test_stencil_above_the_limit_is_refused(self, name, size):
        # Before, make_rule built any stencil, and 1b:1000000000 ended in an
        # out-of-memory kill.
        message = f"rule {name} has {size} stencil offsets, more than the 131072 a rule may have"
        with pytest.raises(ValueError, match=message):
            make_rule(RuleFamily.parse(name))

    @pytest.mark.parametrize("name", ["1b:65535", "abc:1,1,65534"])
    def test_stencil_at_the_limit_is_built(self, name):
        assert len(make_rule(RuleFamily.parse(name)).offsets) == 1 << 17

    @pytest.mark.parametrize(
        "name, dims, key",
        [("1b:65535", (5, 2), (65535, 0)), ("abc:1,1,65534", (3, 2, 2), (65535, 1))],
    )
    def test_stencil_at_the_limit_closes_as_the_reference(self, name, dims, key):
        # On a periodic grid this small the 2^17 wrapped offsets fold into
        # a few weighted planes that reach theta, so the closure grows.
        rule = make_rule(RuleFamily.parse(name))
        cfg = random_configuration(GridSpec(dims, "periodic"), 0.5, Stream(key))
        want = ref_closure(cfg, rule)
        assert want.count_occupied() > cfg.count_occupied()
        assert closure_naive(cfg, rule) == want
        assert closure_fast(cfg, rule) == want
        assert np.array_equal(closure_batch(cfg.cells[None], rule, periodic=True)[0], want.cells)
        # On an open grid fewer than theta offsets land, so nothing grows.
        on_open = Configuration(GridSpec(dims), cfg.cells)
        assert closure_naive(on_open, rule) == on_open


class TestStepAgainstReference:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_random_configurations(self, family, boundary):
        rule = make_rule(family)
        grid = family_grid(family, boundary, small=True)
        for i in range(8):
            cfg = random_configuration(grid, 0.35, Stream((41, i)))
            got, changed = step(cfg, rule)
            want = ref_step(cfg, rule)
            assert got == want
            assert changed == want.count_occupied() - cfg.count_occupied()

    def test_one_dimensional(self):
        rule = make_rule(RuleFamily.parse("standard1"))
        grid = GridSpec((9,), "periodic")
        cfg = random_configuration(grid, 0.4, Stream(5))
        assert step(cfg, rule)[0] == ref_step(cfg, rule)

    def test_small_periodic_wrap_aliasing(self):
        # On a 2-wide periodic strip the north and south offsets reach the
        # same cell; counting per offset must match the reference.
        rule = make_rule(RuleFamily.parse("12"))
        grid = GridSpec((6, 2), "periodic")
        for i in range(10):
            cfg = random_configuration(grid, 0.4, Stream((1, i)))
            assert step(cfg, rule)[0] == ref_step(cfg, rule)

    @pytest.mark.parametrize(
        "family,dims",
        [
            (RuleFamily.parse("12"), (3, 5)),         # +-2 aliases with -+1 on x
            (RuleFamily.parse("12"), (2, 4)),         # +-2 aliases with itself on x
            (RuleFamily.parse("1b:3"), (4, 3)),       # +-3 wraps around a 4-ring
            (RuleFamily.parse("abc:1,1,2"), (3, 3, 3)),
            (RuleFamily.parse("duarte"), (2, 2)),
            (RuleFamily.parse("modified2"), (1, 5)),  # degenerate 1-wide axis
        ],
        ids=lambda v: str(v),
    )
    def test_degenerate_periodic_geometries(self, family, dims):
        rule = make_rule(family)
        grid = GridSpec(dims, "periodic")
        for i in range(12):
            cfg = random_configuration(grid, 0.45, Stream((hash(dims) & 0xFFFF, i)))
            want = ref_step(cfg, rule)
            assert step(cfg, rule)[0] == want
            assert closure_fast(cfg, rule) == ref_closure(cfg, rule)

    def test_empty_grid_never_changes(self):
        for family in ALL_FAMILIES:
            rule = make_rule(family)
            cfg = empty_configuration(family_grid(family, small=True))
            nxt, changed = step(cfg, rule)
            assert changed == 0 and nxt == cfg

    def test_known_firing_cell_one_two(self):
        cfg = empty_configuration(GridSpec((5, 5)))
        cfg = occupy_rect(cfg, Rect((0, 2), (2, 1)))
        cfg = occupy_rect(cfg, Rect((2, 3), (1, 1)))
        rule = make_rule(RuleFamily.parse("12"))
        nxt, _ = step(cfg, rule)
        assert nxt.get((2, 2))

    def test_dimension_mismatch(self):
        rule = make_rule(RuleFamily.parse("standard3"))
        cfg = empty_configuration(GridSpec((4, 4)))
        with pytest.raises(ValueError):
            step(cfg, rule)


class TestCheckerboardStrip:
    @pytest.mark.parametrize("m", [4, 10, 40])
    def test_open_strip_fills_except_truncated_ends(self, m):
        grid = GridSpec((m, 2), "open")
        seed = checkerboard_rect(empty_configuration(grid), Rect((0, 0), (m, 2)), "even")
        rule = make_rule(RuleFamily.parse("12"))
        nxt, changed = step(seed, rule)
        assert changed == m - 2
        # the two cells whose horizontal neighbourhood is truncated stay empty
        assert not nxt.get((m - 1, 0)) and not nxt.get((0, 1))
        assert nxt.count_occupied() == 2 * m - 2

    @pytest.mark.parametrize("m", [4, 12, 100])
    def test_periodic_strip_fills_in_exactly_one_step(self, m):
        grid = GridSpec((m, 2), "periodic")
        seed = checkerboard_rect(empty_configuration(grid), Rect((0, 0), (m, 2)), "even")
        rule = make_rule(RuleFamily.parse("12"))
        nxt, changed = step(seed, rule)
        assert changed == m and nxt.is_full()
        assert step(nxt, rule)[1] == 0


class TestClosure:
    def test_full_grid_fixed_point(self):
        rule = make_rule(RuleFamily.parse("12"))
        cfg = full_configuration(GridSpec((6, 6)))
        assert closure_naive(cfg, rule) == cfg

    def test_empty_fixed_point(self):
        for family in ALL_FAMILIES:
            rule = make_rule(family)
            cfg = empty_configuration(family_grid(family))
            assert closure_fast(cfg, rule) == cfg
            assert closure_naive(cfg, rule) == cfg

    @pytest.mark.parametrize(
        "rule_family", [RuleFamily.parse("12"), RuleFamily.parse("standard2")], ids=lambda f: f.name
    )
    def test_isolated_rectangles_stable(self, rule_family):
        rule = make_rule(rule_family)
        for w in range(1, 6):
            for h in range(1, 6):
                grid = GridSpec((w + 6, h + 6))
                cfg = occupy_rect(empty_configuration(grid), Rect((3, 3), (w, h)))
                assert step(cfg, rule)[1] == 0
                assert closure_naive(cfg, rule) == cfg

    @pytest.mark.parametrize("n", range(1, 9))
    def test_east_column_absorbed_from_any_single_seed(self, n):
        # 2-wide, n-tall rectangle; one occupied cell anywhere in the next
        # column pulls in the whole column segment.
        rule = make_rule(RuleFamily.parse("12"))
        for y0 in range(n):
            grid = GridSpec((3, n))
            cfg = occupy_rect(empty_configuration(grid), Rect((0, 0), (2, n)))
            cfg = occupy_rect(cfg, Rect((2, y0), (1, 1)))
            closed = closure_naive(cfg, rule)
            assert all(closed.get((2, y)) for y in range(n))

    def test_against_reference_closure(self):
        rule = make_rule(RuleFamily.parse("duarte"))
        grid = GridSpec((5, 5))
        for i in range(5):
            cfg = random_configuration(grid, 0.45, Stream((13, i)))
            assert closure_fast(cfg, rule) == ref_closure(cfg, rule)


class TestFastNaiveEquivalence:
    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("p", [0.05, 0.3, 0.7])
    def test_random_equivalence(self, family, boundary, p):
        rule = make_rule(family)
        grid = family_grid(family, boundary)
        for i in range(25):
            key = zlib.crc32(f"{family.name}/{boundary}".encode()) & 0xFFFF
            cfg = random_configuration(grid, p, Stream((key, i)))
            assert closure_fast(cfg, rule) == closure_naive(cfg, rule)

    def test_batch_matches_naive(self):
        for family in ALL_FAMILIES:
            rule = make_rule(family)
            grid = family_grid(family, small=True)
            occ = (
                Stream((zlib.crc32(family.name.encode()) & 0xFFF,))
                .uniforms(32 * grid.cells)
                .reshape((32,) + grid.shape)
                < 0.3
            )
            closed = closure_batch(occ, rule, periodic=False)
            for i in range(32):
                want = closure_naive(Configuration(grid, occ[i]), rule)
                assert np.array_equal(closed[i], want.cells)
            empty = closure_batch(occ[:0], rule, periodic=False)
            assert empty.shape == (0,) + grid.shape and empty.dtype == bool


# Every family, with each 2-d grid no wider than the 1b:3 reach (so b >= width)
# and periodic grids small enough that two offsets wrap onto one cell.
LANE_FAMILIES = [
    RuleFamily.parse(name)
    for name in ("standard1", "standard2", "standard3", "modified1", "modified2", "modified3",
                 "12", "1b:3", "duarte", "abc:1,2,3")
]
LANE_GRIDS = {1: [(9,), (2,)], 2: [(3, 4), (2, 3)], 3: [(3, 2, 4), (2, 3, 2)]}


class TestClosureLanes:
    @pytest.mark.parametrize("family", LANE_FAMILIES, ids=lambda f: f.name)
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_every_lane_matches_naive(self, family, boundary):
        rule = make_rule(family)
        for dims in LANE_GRIDS[rule.dimension]:
            grid = GridSpec(dims, boundary)
            root = Stream((zlib.crc32(f"{family.name}/{boundary}/{dims}".encode()),))
            # densities 0.05 .. 0.75 across lanes, so some lanes fill and some do not
            occ = np.stack([
                random_configuration(grid, 0.05 + 0.1 * (i % 8), root.child(i)).cells
                for i in range(130)
            ])
            want = np.stack([closure_naive(Configuration(grid, o), rule).cells for o in occ])
            for n in (1, 63, 64, 65, 130):
                words = pack_lanes(occ[:n])
                before = words.copy()
                closed = closure_lanes(words, rule, grid.periodic)
                assert np.array_equal(words, before)  # input left alone
                assert np.array_equal(unpack_lanes(closed, n), want[:n])
                assert not unpack_lanes(closed, 64 * len(closed))[n:].any()  # idle lanes

    def test_batch_axes_and_single_word(self):
        rule = make_rule(RuleFamily.parse("12"))
        grid = GridSpec((5, 4))
        occ = np.stack([random_configuration(grid, 0.4, Stream((3, i))).cells for i in range(192)])
        words = pack_lanes(occ)
        stacked = closure_lanes(words.reshape((3, 1) + grid.shape), rule)
        assert np.array_equal(stacked.reshape(words.shape), closure_lanes(words, rule))
        assert np.array_equal(closure_lanes(words[0], rule), closure_lanes(words, rule)[0])

    def test_rejects_other_dtypes_and_shapes(self):
        rule = make_rule(RuleFamily.parse("standard2"))
        for dtype in (np.int64, np.int32, np.float64, bool):
            with pytest.raises(ValueError):
                closure_lanes(np.zeros((4, 4), dtype=dtype), rule)
        with pytest.raises(ValueError):
            closure_lanes(np.zeros(4, dtype=np.uint64), rule)


WORDS = [np.uint8, np.uint16, np.uint32, np.uint64]


def run_ops(form, planes, weights, theta):
    """Runs the calls of _step_ops on a stack of planes; returns out."""
    out = np.empty_like(planes[0])
    scratch = np.empty((1 + max(sum(weights).bit_length(), theta),) + out.shape, out.dtype)
    for ufunc, a, b, into in _step_ops(form, iter(planes), weights, theta, out, scratch):
        ufunc(a, b, out=into)
    return out


def count_calls(form, weights, theta):
    """How many calls _step_ops makes, with stand-ins for the arrays."""
    planes = [object() for _ in weights]
    scratch = [object() for _ in range(1 + max(sum(weights).bit_length(), theta))]
    return sum(1 for _ in _step_ops(form, planes, weights, theta, object(), scratch))


def weight_sets(n):
    """Unit weights, and weights cycling through 1, 2, 3 from each start."""
    return [(1,) * n] + [tuple(1 + (i + s) % 3 for i in range(n)) for s in range(3)]


class TestStepOps:
    """The calls of one step against a popcount oracle: the weighted count
    of the set planes at every bit position, compared with theta."""

    @staticmethod
    def planes(n, dtype, key):
        """n planes of 8 words, at densities from 0 to 1 across the planes,
        with words that are all zeros and all ones among them."""
        size = np.dtype(dtype).itemsize
        u = Stream((key,)).uniforms(n * 8 * 8 * size).reshape(n, 8 * 8 * size)
        bits = u < np.linspace(0.0, 1.0, n)[:, None] if n > 1 else u < 0.5
        bits[:, : 8 * size], bits[:, 8 * size : 16 * size] = False, True  # words 0 and 1
        return np.packbits(bits, axis=1, bitorder="little").view(dtype), bits

    @pytest.mark.parametrize("dtype", WORDS, ids=lambda t: t.__name__)
    def test_both_forms_match_the_popcount_oracle(self, dtype):
        for n in range(1, 21):
            planes, bits = self.planes(n, dtype, n)
            for weights in weight_sets(n):
                counts = np.asarray(weights) @ bits
                for theta in range(1, sum(weights) + 1):
                    want = np.packbits(counts >= theta, bitorder="little").view(dtype)
                    for form in ("counter", "levels"):
                        got = run_ops(form, planes, weights, theta)
                        assert np.array_equal(got, want), (n, weights, theta, form)

    @pytest.mark.parametrize("dtype", WORDS, ids=lambda t: t.__name__)
    def test_weights_and_counts_past_a_byte(self, dtype):
        weights = (300, 1, 2, 255, 7, 128)
        planes, bits = self.planes(len(weights), dtype, 99)
        counts = np.asarray(weights) @ bits
        for theta in (1, 2, 3, 7, 128, 255, 256, 300, 301, 383, 555, 556, 692, 693):
            want = np.packbits(counts >= theta, bitorder="little").view(dtype)
            for form in ("counter", "levels"):
                assert np.array_equal(run_ops(form, planes, weights, theta), want), (theta, form)

    def test_the_chosen_form_never_makes_more_calls_than_the_counter(self):
        for n in range(1, 21):
            for weights in weight_sets(n):
                for theta in range(1, sum(weights) + 1):
                    form, _ = _step_form("threshold", weights, theta)
                    chosen = count_calls(form, weights, theta)
                    assert chosen <= count_calls("counter", weights, theta)

    @pytest.mark.parametrize(
        "name,form,calls",
        [("standard1", "levels", 1), ("standard2", "levels", 7), ("1b:1", "levels", 7),
         ("duarte", "levels", 4), ("12", "levels", 17), ("standard3", "levels", 17),
         ("abc:1,1,1", "levels", 17), ("1b:3", "counter", 31), ("1b:4", "counter", 47),
         ("1b:130", "counter", 3449)],
    )
    def test_calls_a_step_of_each_stencil(self, name, form, calls):
        """The calls of one step where every offset of the stencil lands."""
        rule = make_rule(RuleFamily.parse(name))
        weights = (1,) * len(rule.offsets)
        assert _step_form(rule.kind, weights, rule.theta)[0] == form
        assert count_calls(form, weights, rule.theta) == calls

    def test_the_form_is_chosen_once_for_a_rule_and_grid(self, monkeypatch):
        # Choosing a form dry-runs both (over a second for a stencil of 2^17
        # offsets), so later closures of the same rule and grid reuse it.
        import bootgrid.rules as rules

        dry_runs, ops = [], rules._step_ops

        def counted(form, planes, *args):
            if isinstance(planes, repeat):
                dry_runs.append(form)
            return ops(form, planes, *args)

        monkeypatch.setattr(rules, "_step_ops", counted)
        rules._chosen_form.cache_clear()
        rule, grid = make_rule(RuleFamily.parse("1b:40")), GridSpec((90, 3))
        cfg = random_configuration(grid, 0.5, Stream(4))
        for _ in range(2):
            assert closure_fast(cfg, rule) == closure_naive(cfg, rule)
        assert dry_runs == ["counter", "levels"]
        words = pack_lanes(cfg.cells[None])
        for _ in range(2):
            assert np.array_equal(unpack_lanes(closure_lanes(words, rule), 1)[0],
                                  closure_naive(cfg, rule).cells)
        assert dry_runs == ["counter", "levels"]


def word_type(m):
    """The word closure_batch packs m configurations into."""
    return next(t for t in WORDS if m <= 8 * np.dtype(t).itemsize or t is np.uint64)


def ref_pack_lanes(bits):
    """Per-bit reference packer: bit j of word w is grid lanes * w + j."""
    n, word = len(bits), word_type(len(bits))
    lanes = 8 * np.dtype(word).itemsize
    words = np.zeros((-(-n // lanes),) + bits.shape[1:], dtype=np.uint64)
    for i in range(n):
        words[i // lanes] |= bits[i].astype(np.uint64) << np.uint64(i % lanes)
    return words.astype(word)


class TestPackLanes:
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (2, 3, 2)])
    def test_matches_a_per_bit_reference(self, shape):
        cells = int(np.prod(shape))
        for n in (1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 129):
            bits = Stream((n, len(shape))).uniforms(n * cells).reshape((n,) + shape) < 0.5
            words = pack_lanes(bits)
            assert words.dtype == word_type(n) and words.shape == ref_pack_lanes(bits).shape
            assert np.array_equal(words, ref_pack_lanes(bits)), n
            assert np.array_equal(unpack_lanes(words, n), bits), n


class TestClosureBatchWordWidths:
    """closure_batch packs a block of m < 64 configurations into the
    narrowest word with m lanes, and 64 or more into uint64 words."""

    SIZES = [1, 7, 8, 9, 16, 17, 32, 33, 63, 64, 65]

    @staticmethod
    def check(rule, grid, key):
        root = Stream((zlib.crc32(key.encode()),))
        occ = np.stack([
            random_configuration(grid, 0.1 + 0.85 * (i % 13) / 12, root.child(i)).cells
            for i in range(max(TestClosureBatchWordWidths.SIZES))
        ])
        naive = {}
        want = np.stack([
            naive.setdefault(o.tobytes(), closure_naive(Configuration(grid, o), rule).cells)
            for o in occ
        ])
        for m in TestClosureBatchWordWidths.SIZES:
            assert pack_lanes(occ[:m]).dtype == word_type(m)
            got = closure_batch(occ[:m], rule, periodic=grid.periodic)
            assert np.array_equal(got, want[:m]), m

    @pytest.mark.parametrize(
        "name,dims",
        [("standard2", (6, 5)), ("12", (6, 5)), ("duarte", (5, 6)), ("1b:3", (7, 4)),
         ("modified2", (5, 4)), ("standard3", (3, 2, 4)), ("modified3", (3, 2, 4))],
    )
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_every_width_matches_naive(self, name, dims, boundary):
        rule = make_rule(RuleFamily.parse(name))
        self.check(rule, GridSpec(dims, boundary), f"widths/{name}/{dims}/{boundary}")

    @pytest.mark.parametrize(
        "name,dims,planes",
        [("1b:301", (2, 3), 3),  # (1, 0) stands for 302 offsets, theta 302
         ("1b:200", (3, 4), 4)],  # (1, 0) and (-1, 0) stand for 267 each, theta 201
    )
    def test_periodic_weights_reach_theta_and_pass_a_byte(self, name, dims, planes):
        rule = make_rule(RuleFamily.parse(name))
        weights = _landing_offsets(rule, dims, True)
        assert sum(weights.values()) > 255 and len(weights) == planes
        if name == "1b:301":
            assert max(weights.values()) >= rule.theta
        self.check(rule, GridSpec(dims, "periodic"), f"widths/{name}/{dims}")

    def test_equal_wrapped_offsets_are_one_plane(self):
        rule = make_rule(RuleFamily.parse("1b:20000"))
        weights = _landing_offsets(rule, (8, 8), True)
        assert len(weights) == 9  # x offsets -3..4 but 0, and (0, +-1)
        assert sum(weights.values()) == len(rule.offsets) - 2 * (20000 // 8)


def chain_grid(rule, boundary, length=40):
    """A grid, and a function making configurations on it that fill one cell
    (or one cross-section) per step along the last axis.

    On every other axis the grid is occupied except an empty box of the
    cells at coordinate >= that axis's stencil reach: its last cell on an
    open grid (size reach + 1), a band as wide as the reach plus one on a
    periodic grid (size 2 reach + 1).  A box cell then sees every occupied
    offset on one side of each such axis and needs its neighbours along
    the last axis, so seeding the box at two positions there starts a
    chain that grows one position a step."""
    reach = [max(abs(off[i]) for off in rule.offsets) for i in range(rule.dimension)]
    short = [r + 1 if boundary == "open" else 2 * r + 1 for r in reach[:-1]]
    grid = GridSpec(tuple(short) + (length,), boundary)
    box = np.ones(grid.shape, dtype=bool)  # numpy axes [z, y, x]: the chain axis is 0
    for i, r in enumerate(reach[:-1]):
        index = [slice(None)] * rule.dimension
        index[rule.dimension - 1 - i] = slice(0, r)
        box[tuple(index)] = False

    def chain(start):
        occ = ~box
        occ[start : start + 2] |= box[start : start + 2]
        return occ

    return grid, chain


def naive_steps(grid, occ, rule):
    """closure_naive and the number of synchronous steps it took."""
    config, steps = Configuration(grid, occ), 1
    while True:
        config, changed = step(config, rule)
        if not changed:
            return config.cells, steps
        steps += 1


class TestClosureLanesSettling:
    """Batches whose entries (words) settle at very different steps: empty
    and full grids after one step, chains after tens, random grids in
    between, so entries are set aside and gathered several times."""

    FAMILIES = ["standard1", "standard2", "standard3", "modified2", "12", "abc:1,1,2"]

    @pytest.mark.parametrize("name", FAMILIES)
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_every_entry_and_lane_matches_naive(self, name, boundary):
        rule = make_rule(RuleFamily.parse(name))
        grid, chain = chain_grid(rule, boundary)
        root = Stream((zlib.crc32(f"settle/{name}/{boundary}".encode()),))
        pool = [np.zeros(grid.shape, dtype=bool), np.ones(grid.shape, dtype=bool)]
        pool += [chain(start) for start in (0, 7, 19, 30, 38)]
        pool += [random_configuration(grid, 0.1 + 0.06 * i, root.child(i)).cells
                 for i in range(14)]
        want, steps = zip(*(naive_steps(grid, occ, rule) for occ in pool))
        assert max(steps) >= 20 and min(steps) == 1
        # entry e draws its 64 lanes from a few pool configurations of one
        # kind, so whole entries settle early or late
        kinds = [[0], [1], [2, 3, 4, 5, 6], list(range(7, len(pool)))]
        for lead in [(1,), (2,), (3,), (64,), (65,), (5, 13), (2, 3)]:
            n = int(np.prod(lead))
            picks = np.array([
                kinds[e % 4][(e + j) % len(kinds[e % 4])] for e in range(n) for j in range(64)
            ])
            words = pack_lanes(np.stack([pool[i] for i in picks]))
            closed = closure_lanes(words.reshape(lead + grid.shape), rule, grid.periodic)
            assert closed.shape == lead + grid.shape
            got = unpack_lanes(closed.reshape(words.shape), 64 * n)
            for lane, i in enumerate(picks):
                assert np.array_equal(got[lane], want[i]), (lead, lane // 64, lane % 64)


class TestClosureLanesCheckCadence:
    """closure_lanes looks for settled entries on each of a closure's first
    _CHECKED_STEPS steps and then only on every _CHECK_EVERY-th step.
    Chains on grids of growing length give every closure length from 1 to
    past the third check after step _CHECKED_STEPS, each closed as one
    entry and beside entries that settle at step 1.  The chain's entry
    also holds random configurations, which settle early but keep being
    stepped between checks, where a step that let the rule occupy halo
    cells of an open grid would change them."""

    LAST = _CHECKED_STEPS + 3 * _CHECK_EVERY + 2

    @pytest.mark.parametrize("name", TestClosureLanesSettling.FAMILIES)
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_every_length_alone_and_beside_entries_settled_at_step_one(self, name, boundary):
        rule = make_rule(RuleFamily.parse(name))
        root = Stream((zlib.crc32(f"cadence/{name}/{boundary}".encode()),))
        lengths = set()
        for n in range(2, 2 * self.LAST + 4):
            grid, chain = chain_grid(rule, boundary, n)
            occ = chain(0)
            steps = naive_steps(grid, occ, rule)[1]
            if steps > self.LAST or steps in lengths:
                continue
            lengths.add(steps)
            # The full grid settles at step 1.  On a periodic grid its halo
            # copies are occupied cells at the wrap edges, as are the
            # chain's, so a settling test that read the halo as empty cells
            # would never end.
            starts = [occ, np.zeros_like(occ), np.ones_like(occ)]
            starts += [random_configuration(grid, p, root.child(n).child(i)).cells
                       for i, p in enumerate((0.1, 0.2, 0.35, 0.5))]
            want = [closure_naive(Configuration(grid, cells), rule).cells for cells in starts]
            # one entry of 16 lanes, and five entries of 64 equal lanes:
            # empty, full, the chain, full, empty
            alone = [0, 1, 0, 2, 3, 4, 5, 6] * 2
            batch = [k for k in (1, 2, 0, 2, 1) for _ in range(64)]
            for picks, lead in [(alone, ()), (batch, (5,))]:
                words = pack_lanes(np.stack([starts[k] for k in picks]))
                closed = closure_lanes(words.reshape(lead + grid.shape), rule, grid.periodic)
                got = unpack_lanes(closed.reshape(words.shape), len(picks))
                for lane, k in enumerate(picks):
                    assert np.array_equal(got[lane], want[k]), (steps, lead, lane)
        assert lengths == set(range(1, self.LAST + 1))


class TestWideStencils:
    """Stencils with more than 255 offsets, whose neighbour counts do not
    fit in a byte: one empty cell in the middle sees every offset occupied."""

    @pytest.mark.parametrize(
        "name,dims,hole",
        [
            ("1b:130", (300, 3), (150, 1)),     # 262 offsets, theta 131
            ("abc:1,1,126", (3, 3, 253), (1, 1, 126)),  # 256 offsets, theta 128
        ],
    )
    def test_one_hole_fills(self, name, dims, hole):
        rule = make_rule(RuleFamily.parse(name))
        assert len(rule.offsets) > 255
        cfg = full_configuration(GridSpec(dims))
        cfg.cells[tuple(reversed(hole))] = False
        want = ref_closure(cfg, rule)
        assert want.is_full()
        assert closure_naive(cfg, rule) == want
        assert closure_fast(cfg, rule) == want
        assert step(cfg, rule)[1] == 1
        lanes = closure_lanes(pack_lanes(cfg.cells[None]), rule)
        assert np.array_equal(unpack_lanes(lanes, 1)[0], want.cells)

    def test_random_configurations(self):
        rule = make_rule(RuleFamily.parse("1b:130"))
        grid = GridSpec((300, 3))
        occ = np.stack([
            random_configuration(grid, 0.98, Stream((130, i))).cells for i in range(3)
        ])
        lanes = unpack_lanes(closure_lanes(pack_lanes(occ), rule), len(occ))
        for o, got in zip(occ, lanes):
            cfg = Configuration(grid, o)
            want = ref_closure(cfg, rule)
            assert closure_naive(cfg, rule) == want
            assert closure_fast(cfg, rule) == want
            assert np.array_equal(got, want.cells)


class TestStencilsLongerThanTheGrid:
    """On an open grid an offset at least as long as its axis never lands
    inside, and the kernels close with only the offsets that do; with fewer
    of them than theta the closure is the input.  On a periodic grid the
    kernels step every offset wrapped to within half its axis, counted with
    multiplicity, and drop those that wrap onto the cell itself.  Every
    kernel equals closure_naive either way, and the per-cell reference
    closure where the grid and stencil are small."""

    L = 7

    @staticmethod
    def check(rule, grid, key):
        """Closes empty, full and random configurations with every kernel;
        returns the configurations and their naive closures."""
        root = Stream((zlib.crc32(key.encode()),))
        occ = np.stack(
            [empty_configuration(grid).cells, full_configuration(grid).cells]
            + [random_configuration(grid, p, root.child(i)).cells
               for i, p in enumerate((0.3, 0.6, 0.8, 0.9, 0.95, 0.98))]
        )
        want = np.stack([closure_naive(Configuration(grid, o), rule).cells for o in occ])
        fast = np.stack([closure_fast(Configuration(grid, o), rule).cells for o in occ])
        lanes = unpack_lanes(closure_lanes(pack_lanes(occ), rule, grid.periodic), len(occ))
        assert np.array_equal(fast, want)
        assert np.array_equal(lanes, want)
        assert np.array_equal(closure_batch(occ, rule, periodic=grid.periodic), want)
        if grid.cells * len(rule.offsets) <= 2000:
            ref = np.stack([ref_closure(Configuration(grid, o), rule).cells for o in occ])
            assert np.array_equal(ref, want)
        return occ, want

    @pytest.mark.parametrize("dims", [(L, 3), (3, 2), (2, 3), (1, 3), (3, 1)], ids=str)
    @pytest.mark.parametrize("scale, shift", [(1, -1), (1, 0), (1, 1), (2, 1), (3, 0), (5, 0)],
                             ids=["L-1", "L", "L+1", "2L+1", "3L", "5L"])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_one_b_longer_than_a_row(self, dims, scale, shift, boundary):
        b = max(1, scale * dims[0] + shift)
        rule = make_rule(RuleFamily("one_b", (b,)))
        occ, want = self.check(rule, GridSpec(dims, boundary), f"1b:{b}/{dims}/{boundary}")
        if boundary == "open" and b > dims[0]:
            # a cell sees at most Lx - 1 + 2 < theta = b + 1 occupied cells
            assert np.array_equal(want, occ)

    @pytest.mark.parametrize(
        "name, dims",
        [
            ("abc:1,1,2", (4, 4, 2)),
            ("abc:1,2,3", (4, 4, 2)),
            ("abc:1,1,3", (3, 3, 3)),
            ("abc:2,2,5", (3, 3, 2)),
            ("abc:1,1,4", (3, 3, 1)),
            ("abc:1,2,7", (1, 2, 3)),
            ("abc:2,3,11", (3, 1, 2)),
            ("abc:3,3,3", (2, 3, 1)),
        ],
    )
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_abc_longer_than_the_z_axis(self, name, dims, boundary):
        rule = make_rule(RuleFamily.parse(name))
        self.check(rule, GridSpec(dims, boundary), f"{name}/{dims}/{boundary}")

    @pytest.mark.parametrize(
        "name",
        ["standard1", "standard2", "standard3", "modified1", "modified2", "modified3",
         "12", "duarte", "1b:1", "1b:5", "abc:1,1,1", "abc:1,2,3"],
    )
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_single_cell_grid(self, name, boundary):
        rule = make_rule(RuleFamily.parse(name))
        self.check(rule, GridSpec((1,) * rule.dimension, boundary), f"one/{name}/{boundary}")

    @pytest.mark.parametrize(
        "name, dims, p",
        [("1b:7", (7, 3), 0.8), ("1b:35", (7, 3), 0.9), ("1b:15", (3, 2), 0.6),
         ("1b:40", (8, 8), 0.7), ("abc:1,2,7", (2, 3, 3), 0.8)],
    )
    def test_fill_probability_on_a_periodic_grid(self, name, dims, p):
        rule, grid = make_rule(RuleFamily.parse(name)), GridSpec(dims, "periodic")
        (est,) = fill_probability(rule, grid, [p], 96, seed=5)
        root = Stream((5, _STREAM_DOMAIN))
        filled = sum(
            closure_naive(random_configuration(grid, p, root.child(i)), rule).is_full()
            for i in range(96)
        )
        assert 0 < filled < 96
        assert est.mean == filled / 96


ROW_FAMILIES = ["standard1", "standard2", "standard3", "modified1", "modified2", "modified3",
                "12", "duarte", "1b:1", "1b:64", "1b:65"]


class TestRowKernelEdges:
    """closure_fast packs the cells of a row into 64-bit words: grids one
    word wide and just past a word edge, x offsets of a word or more, and
    periodic grids where offsets wrap onto one cell."""

    @staticmethod
    def configurations(grid, key):
        root = Stream((zlib.crc32(key.encode()),))
        yield empty_configuration(grid)
        yield full_configuration(grid)
        for i, p in enumerate((0.1, 0.3, 0.5)):
            yield random_configuration(grid, p, root.child(i))

    @pytest.mark.parametrize("name", ROW_FAMILIES)
    @pytest.mark.parametrize("lx", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_row_widths_match_reference(self, name, lx, boundary):
        rule = make_rule(RuleFamily.parse(name))
        grid = GridSpec(((lx,), (lx, 3), (lx, 2, 2))[rule.dimension - 1], boundary)
        for cfg in self.configurations(grid, f"rows/{name}/{lx}/{boundary}"):
            assert closure_fast(cfg, rule) == ref_closure(cfg, rule)

    @pytest.mark.parametrize("lx", [5, 63, 65, 130])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    def test_diagonal_stencil_matches_reference(self, lx, boundary):
        # A bit past the end of row y + 1, set from row y through (-2, -1),
        # would be read back by row y through (1, 1).
        rule = Rule("threshold", 2, ((-2, -1), (1, 1)), 1)
        grid = GridSpec((lx, 4), boundary)
        for cfg in self.configurations(grid, f"diagonal/{lx}/{boundary}"):
            assert closure_fast(cfg, rule) == ref_closure(cfg, rule)

    @pytest.mark.parametrize("name", ["abc:1,1,2", "abc:1,2,3"])
    @pytest.mark.parametrize("dims", [(3, 2), (2, 3), (5, 4)], ids=str)
    @pytest.mark.parametrize("lz", [1, 2, 3])
    def test_periodic_3d_wrapped_offsets_match_reference(self, name, dims, lz):
        rule = make_rule(RuleFamily.parse(name))
        grid = GridSpec(dims + (lz,), "periodic")
        for cfg in self.configurations(grid, f"wrap/{name}/{dims}/{lz}"):
            assert closure_fast(cfg, rule) == ref_closure(cfg, rule)


class TestClosureProperties:
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(0.05, 0.6),
        fi=st.integers(0, len(ALL_FAMILIES) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_contains(self, seed, p, fi):
        family = ALL_FAMILIES[fi]
        rule = make_rule(family)
        grid = family_grid(family, small=True)
        cfg = random_configuration(grid, p, Stream(seed))
        closed = closure_fast(cfg, rule)
        assert not (cfg.cells & ~closed.cells).any()  # X subset of closure(X)
        assert closure_fast(closed, rule) == closed

    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.floats(0.05, 0.5),
        extra=st.integers(1, 10),
        fi=st.integers(0, len(ALL_FAMILIES) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_initial_set(self, seed, p, extra, fi):
        family = ALL_FAMILIES[fi]
        rule = make_rule(family)
        grid = family_grid(family, small=True)
        small = random_configuration(grid, p, Stream(seed))
        adds = Stream((seed, 1)).uniforms(grid.cells) < (extra / grid.cells)
        big = Configuration(grid, small.cells | adds.reshape(grid.shape))
        a = closure_fast(small, rule)
        b = closure_fast(big, rule)
        assert not (a.cells & ~b.cells).any()

    @given(
        seed=st.integers(0, 2**32 - 1),
        sx=st.integers(0, 11),
        sy=st.integers(0, 11),
        fi=st.integers(0, len(ALL_FAMILIES) - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_equivariance_periodic(self, seed, sx, sy, fi):
        rule = make_rule(ALL_FAMILIES[fi])
        if rule.dimension != 2:
            return
        grid = GridSpec((12, 12), "periodic")
        cfg = random_configuration(grid, 0.3, Stream(seed))
        rolled = Configuration(grid, np.roll(cfg.cells, (sy, sx), axis=(0, 1)))
        a = closure_fast(rolled, rule)
        b = Configuration(grid, np.roll(closure_fast(cfg, rule).cells, (sy, sx), axis=(0, 1)))
        assert a == b


class TestIsStable:
    """A configuration is stable when one ``step`` changes nothing."""

    def test_full_grid(self):
        rule = make_rule(RuleFamily.parse("12"))
        assert step(full_configuration(GridSpec((5, 5))), rule)[1] == 0

    def test_checkerboard_strip_not_stable(self):
        grid = GridSpec((8, 2), "periodic")
        seed = checkerboard_rect(empty_configuration(grid), Rect((0, 0), (8, 2)), "even")
        assert step(seed, make_rule(RuleFamily.parse("12")))[1] != 0
