import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootgrid import (
    Configuration,
    GridSpec,
    Rect,
    Stream,
    checkerboard_rect,
    empty_configuration,
    from_text,
    full_configuration,
    occupy_rect,
    random_configuration,
    to_text,
)
from reference import ref_count_occupied, ref_from_text, ref_to_text

NOT_INTEGERS = [2.7, 2.0, np.float64(3.0), "4", True, None]


class TestGridSpec:
    def test_basic(self):
        g = GridSpec((4, 3))
        assert g.ndim == 2 and g.cells == 12 and g.shape == (3, 4)
        assert not g.periodic

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            GridSpec((2, 2, 2, 2))
        with pytest.raises(ValueError):
            GridSpec(())

    def test_rejects_nonpositive_sides(self):
        with pytest.raises(ValueError):
            GridSpec((0, 4))

    def test_rejects_huge_grids(self):
        with pytest.raises(ValueError):
            GridSpec((1 << 21, 1 << 21))

    def test_rejects_unknown_boundary(self):
        with pytest.raises(ValueError):
            GridSpec((4, 4), "moebius")

    @pytest.mark.parametrize("side", NOT_INTEGERS)
    def test_side_lengths_are_integers(self, side):
        dims = GridSpec((np.int64(4), np.uint8(3))).dims
        assert dims == (4, 3) and all(type(d) is int for d in dims)
        message = f"a side length must be an integer, got {re.escape(repr(side))}"
        with pytest.raises(ValueError, match=message):
            GridSpec((side, 3))


class TestRandomConfiguration:
    def test_p_zero_empty(self):
        cfg = random_configuration(GridSpec((6, 5)), 0.0, Stream(1))
        assert cfg.is_empty()

    def test_p_one_full(self):
        cfg = random_configuration(GridSpec((6, 5)), 1.0, Stream(1))
        assert cfg.is_full()

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            random_configuration(GridSpec((4,)), 1.5, Stream(0))
        with pytest.raises(ValueError):
            random_configuration(GridSpec((4,)), -0.1, Stream(0))

    def test_mean_density_binomial(self):
        # 10^4 samples of a 32x32 grid at p = 0.5: the pooled occupied
        # fraction is binomial with sigma = 0.5 / sqrt(1024 * 10^4).
        grid = GridSpec((32, 32))
        root = Stream(20260808)
        samples = 10_000
        occupied = 0
        for i in range(samples):
            occupied += random_configuration(grid, 0.5, root.child(i)).count_occupied()
        frac = occupied / (grid.cells * samples)
        sigma = 0.5 / (grid.cells * samples) ** 0.5
        assert abs(frac - 0.5) < 3.0 * sigma

    def test_deterministic_given_stream(self):
        grid = GridSpec((9, 7))
        a = random_configuration(grid, 0.37, Stream((5, 2)))
        b = random_configuration(grid, 0.37, Stream((5, 2)))
        assert a == b

    def test_coupled_monotone_in_p(self):
        grid = GridSpec((16, 16))
        for i in range(50):
            s = Stream(99).child(i)
            lo = random_configuration(grid, 0.2, s)
            hi = random_configuration(grid, 0.6, s)
            assert not (lo.cells & ~hi.cells).any()


class TestRect:
    def test_occupy_counting(self):
        cfg = empty_configuration(GridSpec((8, 8)))
        out = occupy_rect(cfg, Rect((0, 0), (2, 3)))
        assert out.count_occupied() == 6
        assert cfg.is_empty()  # input untouched

    def test_occupy_idempotent(self):
        cfg = empty_configuration(GridSpec((8, 8)))
        r = Rect((3, 2), (4, 5))
        once = occupy_rect(cfg, r)
        twice = occupy_rect(once, r)
        assert once == twice

    def test_whole_grid_rect_fills(self):
        cfg = empty_configuration(GridSpec((5, 4)))
        out = occupy_rect(cfg, Rect((0, 0), (5, 4)))
        assert out.is_full()

    def test_out_of_bounds_rejected(self):
        cfg = empty_configuration(GridSpec((4, 4)))
        with pytest.raises(ValueError):
            occupy_rect(cfg, Rect((3, 0), (2, 1)))
        with pytest.raises(ValueError):
            occupy_rect(cfg, Rect((-1, 0), (1, 1)))

    def test_refuses_mismatched_or_empty_extents(self):
        with pytest.raises(ValueError, match="corner and extents must have the same dimension"):
            Rect((0, 0), (1,))
        with pytest.raises(ValueError, match=r"extents must be positive, got \(1, 0\)"):
            Rect((0, 0), (1, 0))
        with pytest.raises(ValueError, match="rect dimension does not match grid dimension"):
            Rect((0, 0), (1, 1)).check_within(GridSpec((4, 4, 4)))

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    def test_corner_and_extents_are_integers(self, value):
        rect = Rect((np.int32(1), 0), (np.int64(2), np.uint16(1)))
        assert (rect.corner, rect.extents) == ((1, 0), (2, 1))
        got = f"must be an integer, got {re.escape(repr(value))}"
        with pytest.raises(ValueError, match=f"a corner coordinate {got}"):
            Rect((value, 0), (1, 1))
        with pytest.raises(ValueError, match=f"an extent {got}"):
            Rect((0, 0), (value, 1))

    def test_3d_rect(self):
        cfg = empty_configuration(GridSpec((4, 4, 4)))
        out = occupy_rect(cfg, Rect((1, 1, 1), (2, 2, 2)))
        assert out.count_occupied() == 8


class TestCheckerboard:
    def test_even_counting(self):
        cfg = empty_configuration(GridSpec((8, 8)))
        out = checkerboard_rect(cfg, Rect((0, 0), (2, 4)), "even")
        assert out.count_occupied() == 4
        for x, y in [(0, 0), (1, 1), (0, 2), (1, 3)]:
            assert out.get((x, y))

    def test_even_plus_odd_is_full_rect(self):
        cfg = empty_configuration(GridSpec((7, 5)))
        r = Rect((1, 1), (4, 3))
        both = checkerboard_rect(checkerboard_rect(cfg, r, "even"), r, "odd")
        assert both.count_occupied() == 12

    def test_requires_2d(self):
        cfg = empty_configuration(GridSpec((4, 4, 4)))
        with pytest.raises(ValueError):
            checkerboard_rect(cfg, Rect((0, 0, 0), (2, 2, 2)), "even")

    def test_bad_parity(self):
        cfg = empty_configuration(GridSpec((4, 4)))
        with pytest.raises(ValueError):
            checkerboard_rect(cfg, Rect((0, 0), (2, 2)), "both")


class TestWritersMonotone:
    def test_never_clear_bits(self):
        grid = GridSpec((10, 6))
        base = random_configuration(grid, 0.4, Stream(3))
        out = occupy_rect(base, Rect((2, 1), (5, 3)))
        assert not (base.cells & ~out.cells).any()
        out2 = checkerboard_rect(base, Rect((0, 0), (10, 6)), "odd")
        assert not (base.cells & ~out2.cells).any()


class TestCounting:
    def test_count_matches_naive_loop(self):
        for dims in [(7,), (5, 4), (3, 4, 2)]:
            cfg = random_configuration(GridSpec(dims), 0.5, Stream(dims))
            assert cfg.count_occupied() == ref_count_occupied(cfg)


class TestTextFormat:
    @pytest.mark.parametrize(
        "dims,boundary",
        [((9,), "open"), ((5, 3), "open"), ((5, 3), "periodic"), ((3, 2, 4), "open")],
    )
    def test_round_trip(self, dims, boundary):
        cfg = random_configuration(GridSpec(dims, boundary), 0.5, Stream(77))
        again = from_text(to_text(cfg))
        assert again == cfg
        assert again.grid.boundary == boundary

    def test_full_and_empty_round_trip(self):
        g = GridSpec((4, 4))
        assert from_text(to_text(full_configuration(g))) == full_configuration(g)
        assert from_text(to_text(empty_configuration(g))) == empty_configuration(g)

    def test_comment_lines_skipped(self):
        text = "# produced by a tool\n" + to_text(full_configuration(GridSpec((3, 2))))
        assert from_text(text).is_full()

    def test_header_layout(self):
        text = to_text(empty_configuration(GridSpec((3, 2), "periodic")))
        lines = text.splitlines()
        assert lines[0] == "dims: 3 2"
        assert lines[1] == "boundary: periodic"
        assert lines[2:] == ["000", "000"]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            from_text("dims: 2 2\nboundary: open\n01\n0x\n")
        with pytest.raises(ValueError):
            from_text("boundary: open\n01\n")
        with pytest.raises(ValueError):
            from_text("dims: 2 2\nboundary: open\n01\n")

    def test_rejects_a_missing_boundary_line(self):
        with pytest.raises(ValueError, match="expected a 'boundary: ...' header line"):
            from_text("dims: 2 2\n01\n10\n")

    @pytest.mark.parametrize("dims", ["2147483648", "2147483648 1", "4294967296 2 1"])
    def test_refuses_rows_of_2_to_the_31_cells_up_front(self, dims):
        # numpy's fixed-width byte dtype of one row cannot hold such a row:
        # this used to fail with "data type 'S2147483648' not understood".
        with pytest.raises(ValueError, match=rf"rows of {dims.split()[0]} cells are too long"):
            from_text(f"dims: {dims}\nboundary: open\n0\n")

    def test_a_row_just_below_2_to_the_31_cells_is_not_refused_for_its_length(self):
        with pytest.raises(ValueError, match="body does not match dims"):
            from_text("dims: 2147483647\nboundary: open\n0\n")


def _parse_outcome(parse, text):
    """The configuration ``parse`` returns, or the ValueError message it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _assert_parses_like_reference(text):
    got = _parse_outcome(from_text, text)
    want = _parse_outcome(ref_from_text, text)
    assert got == want
    if isinstance(got, Configuration):
        assert got.cells.flags.writeable


_ROWS_3x2 = "dims: 3 2\nboundary: open\n"
_ROWS_2x2x2 = "dims: 2 2 2\nboundary: periodic\n"


class TestTextFormatOracle:
    """The array codec against the per-character codec in tests/reference.py."""

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize(
        "dims",
        [(1,), (9,), (1, 1), (1, 5), (5, 1), (7, 4), (1, 1, 1), (3, 2, 4), (1, 3, 2), (4, 1, 3)],
    )
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_render_and_parse_match_reference(self, dims, boundary, p):
        cfg = random_configuration(GridSpec(dims, boundary), p, Stream((*dims, 5)))
        text = to_text(cfg)
        assert text == ref_to_text(cfg)
        assert from_text(text) == ref_from_text(text) == cfg
        _assert_parses_like_reference(text.replace("\n", "\r\n"))

    @pytest.mark.parametrize(
        "body",
        [
            "010\n111\n",
            "010\r\n111\r\n",
            "010\r111\r",
            "\n010\n  \n\t\n111\n\n",
            "010\n# a comment inside the body\n111\n",
            "#010\n010\n111\n",
            "010 \n111\n",
            " 010\n111\n",
            "010\n121\n",
            "010\n1/1\n",
            "/10\n111\n",
            "010\n112\n",
            "010\n1\x001\n",
            "010\n1\x7f1\n",
            "010\n1\u06611\n",
            "010\n1\u00e91\n",
            "\u00e910\n111\n",
            "010\n1x1\n",
            "010\n1\x0c11\n",
            "010\x0c111\n",
            "010\x0b111\n",
            "010\u2028111\n",
            "010\x85111\n",
            "010\n\u3000\n111\n",
            "01\n111\n",
            "0101\n111\n",
            "010\n",
            "010\n111\n000\n",
            "",
            "010111\n",
            "01\n11\n0x\n",
            "0101\n0x\n",
        ],
    )
    def test_parse_matches_reference_2d(self, body):
        _assert_parses_like_reference(_ROWS_3x2 + body)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "dims: 3\n",
            "boundary: open\n01\n",
            "dims: 3\nboundary: open\n010",
            "dims: 3\nboundary: open\n0100\n",
            "dims: 3\nboundary: sideways\n010\n",
            "dims: 3\nboundary:   periodic  \n101\n",
            "# preamble\r\ndims: 3\r\n# between\r\nboundary: open\r\n101\r\n",
            "\ndims: 3\nboundary: open\n101\n",
            "dims: x\nboundary: open\n101\n",
            "dims: 0\nboundary: open\n\n",
            "dims: 1 2 3 4\nboundary: open\n0\n",
        ],
    )
    def test_parse_matches_reference_headers_and_1d(self, text):
        _assert_parses_like_reference(text)

    @pytest.mark.parametrize(
        "body",
        [
            "01\n10\n\n11\n00\n",
            "01\n10\n11\n00\n",
            "01\n10\n\n\n\n11\n00\n",
            "01\n10\n\n11\n",
            "01\n10\n\n11\n00\n\n01\n",
            "01\n10\n \n11\n0\n",
        ],
    )
    def test_parse_matches_reference_3d(self, body):
        _assert_parses_like_reference(_ROWS_2x2x2 + body)

    def test_seeded_2048_round_trip(self):
        cfg = random_configuration(GridSpec((2048, 2048)), 0.05, Stream(2048))
        text = to_text(cfg)
        assert text == ref_to_text(cfg)
        assert len(text) == len("dims: 2048 2048\nboundary: open\n") + 2048 * 2049
        assert from_text(text) == cfg == ref_from_text(text)

    @pytest.mark.parametrize("bad,at", [("2", 2047), ("\u0661", 2047), ("/", 0)])
    def test_2048_rows_bad_last_row_is_named(self, bad, at):
        last = "1" * at + bad + "0" * (2047 - at)
        body = ("01" * 1024 + "\n") * 2047 + last + "\n"
        text = "dims: 2048 2048\nboundary: open\n" + body
        _assert_parses_like_reference(text)
        with pytest.raises(ValueError, match="invalid row characters") as exc:
            from_text(text)
        assert repr(last) in str(exc.value)

    def test_2048_rows_one_row_short(self):
        text = "dims: 2048 2048\nboundary: open\n" + ("10" * 1024 + "\n") * 2047
        _assert_parses_like_reference(text)
        with pytest.raises(ValueError, match="body does not match dims"):
            from_text(text)

    @pytest.mark.parametrize(
        "body,bad",
        [
            ("010\n1x11\n", "1x11"),  # a wrong-length row that holds a bad character
            ("010\n1\u00e9\n", "1\u00e9"),  # non-ASCII text in a short row
            ("010\n11\x00\n", "11\x00"),  # a NUL byte ending a full-length row
        ],
    )
    def test_bad_row_is_named_before_the_shape_is_checked(self, body, bad):
        text = _ROWS_3x2 + body
        _assert_parses_like_reference(text)
        with pytest.raises(ValueError) as exc:
            from_text(text)
        assert str(exc.value) == f"invalid row characters in {bad!r}"

    def test_one_valid_row_too_many(self):
        text = _ROWS_3x2 + "010\n111\n000\n"
        _assert_parses_like_reference(text)
        with pytest.raises(ValueError, match=r"^body does not match dims \(3, 2\)$"):
            from_text(text)

    def test_cells_are_writable_and_borrow_nothing_from_the_text(self):
        text = _ROWS_3x2 + "010\n111\n"
        cells = from_text(text).cells
        owner = cells
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        assert owner.base is None  # numpy owns the data
        cells[...] = ~cells
        assert text == _ROWS_3x2 + "010\n111\n"
        assert from_text(text).cells.tolist() == [[False, True, False], [True, True, True]]

    @given(
        st.text(alphabet="01 2\t\r\n\x0c#\u2028", max_size=40),
        st.sampled_from([_ROWS_3x2, _ROWS_2x2x2, "dims: 4\nboundary: open\n"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_reference_on_random_bodies(self, body, header):
        _assert_parses_like_reference(header + body)


class TestConfiguration:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Configuration(GridSpec((4, 3)), np.zeros((4, 3), dtype=bool))

    def test_equality_includes_grid(self):
        a = empty_configuration(GridSpec((4, 3), "open"))
        b = empty_configuration(GridSpec((4, 3), "periodic"))
        assert a != b

    @pytest.mark.parametrize("other", [None, 0, "dims: 4 3", GridSpec((4, 3))])
    def test_unequal_to_a_non_configuration_both_ways(self, other):
        config = empty_configuration(GridSpec((4, 3)))
        assert config != other and other != config
        assert not (config == other or other == config)

    def test_repr_names_dims_boundary_and_occupancy(self):
        cells = np.zeros((3, 4), dtype=bool)
        cells[0, 1] = cells[2, 3] = True
        config = Configuration(GridSpec((4, 3), "periodic"), cells)
        assert repr(config) == "Configuration(dims=(4, 3), boundary='periodic', occupied=2/12)"
