"""Finite hypercubic grids and one-bit-per-cell occupancy configurations.

Coordinates are 0-based ``(x, y)`` or ``(x, y, z)`` with ``x`` the fastest
axis.  Internally a configuration is a boolean numpy array indexed
``[z, y, x]`` (C order), so the flat cell index is
``x + Lx * (y + Ly * z)`` and bulk operations are contiguous.

Boundary handling is a property of the grid: ``open`` means cells outside
the grid are permanently empty, ``periodic`` means all axes wrap.

Text format (:func:`to_text` writes it, :func:`from_text` reads it).  The
input is split into lines with ``str.splitlines``.  Lines starting with
``#`` are ignored anywhere.  What remains is:

    dims: Lx [Ly [Lz]]       side lengths, whitespace-separated integers
    boundary: open|periodic  surrounding whitespace is ignored
    <body>

The body holds ``Ly * Lz`` rows (``Ly = Lz = 1`` where the axis is
absent), in order of increasing ``y``, then increasing ``z``.  Each row
is exactly ``Lx`` characters ``0`` (empty) or ``1`` (occupied), in order
of increasing ``x``.  Blank and whitespace-only lines in the body are
ignored; any other character in a row is an error.  On output every line
ends with ``\\n``, and in 3-D one blank line separates consecutive
z-blocks.

Buffers, each about one byte per cell.  Beside the text it is given,
:func:`from_text` holds the text's lines and one fixed-width byte array
of the body rows; that array, shifted to 0/1 in place, becomes the cells,
so the parse peaks at about two bytes per cell above its input.  Rows of
the wrong count or length, or with a byte outside ``0``/``1``, are not
converted: they are scanned one by one to name the first bad row.  Beside
the cells, :func:`to_text` holds one byte buffer (header, digits and
newlines) and the string decoded from it, also two bytes per cell.
Since that array's item is one row, :func:`from_text` refuses a row of
2^31 or more cells up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .rng import Stream

MAX_CELLS = 1 << 40

# The longest row from_text parses: its fixed-width byte array of rows has
# an item size of one row, which numpy holds in a C int.
_MAX_ROW = (1 << 31) - 1

BOUNDARIES = ("open", "periodic")


@dataclass(frozen=True)
class GridSpec:
    """Side lengths per axis plus the boundary condition."""

    dims: tuple[int, ...]
    boundary: str = "open"

    def __init__(self, dims, boundary: str = "open"):
        dims = tuple(_check_int(d, "a side length") for d in dims)
        if not 1 <= len(dims) <= 3:
            raise ValueError(f"dimension must be 1..3, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise ValueError(f"all side lengths must be >= 1, got {dims}")
        if prod(dims) > MAX_CELLS:
            raise ValueError(f"grid of {prod(dims)} cells exceeds the {MAX_CELLS} limit")
        if boundary not in BOUNDARIES:
            raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "boundary", boundary)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def cells(self) -> int:
        return prod(self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        """Numpy array shape: dims reversed so x is the last (fastest) axis."""
        return tuple(reversed(self.dims))

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box given by its minimal corner and positive extents."""

    corner: tuple[int, ...]
    extents: tuple[int, ...]

    def __init__(self, corner, extents):
        corner = tuple(_check_int(c, "a corner coordinate") for c in corner)
        extents = tuple(_check_int(e, "an extent") for e in extents)
        if len(corner) != len(extents):
            raise ValueError("corner and extents must have the same dimension")
        if any(e < 1 for e in extents):
            raise ValueError(f"extents must be positive, got {extents}")
        object.__setattr__(self, "corner", corner)
        object.__setattr__(self, "extents", extents)

    def check_within(self, grid: GridSpec) -> None:
        if len(self.corner) != grid.ndim:
            raise ValueError("rect dimension does not match grid dimension")
        for c, e, d in zip(self.corner, self.extents, grid.dims):
            if c < 0 or c + e > d:
                raise ValueError(f"rect {self} does not fit in grid dims {grid.dims}")

    def slices(self) -> tuple[slice, ...]:
        """Index tuple for the [z, y, x]-ordered occupancy array."""
        return tuple(
            slice(c, c + e) for c, e in zip(reversed(self.corner), reversed(self.extents))
        )


class Configuration:
    """Occupancy state of a grid.  Treat instances as immutable; the
    writer operations in this module return new configurations."""

    __slots__ = ("grid", "cells")

    def __init__(self, grid: GridSpec, cells: np.ndarray):
        cells = np.asarray(cells, dtype=bool)
        if cells.shape != grid.shape:
            raise ValueError(f"occupancy shape {cells.shape} != grid shape {grid.shape}")
        self.grid = grid
        self.cells = cells

    def copy(self) -> "Configuration":
        return Configuration(self.grid, self.cells.copy())

    def count_occupied(self) -> int:
        return int(np.count_nonzero(self.cells))

    def is_full(self) -> bool:
        return bool(self.cells.all())

    def is_empty(self) -> bool:
        return not self.cells.any()

    def get(self, coord: tuple[int, ...]) -> bool:
        return bool(self.cells[tuple(reversed(coord))])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.grid == other.grid and bool(np.array_equal(self.cells, other.cells))

    def __repr__(self) -> str:
        return (
            f"Configuration(dims={self.grid.dims}, boundary={self.grid.boundary!r}, "
            f"occupied={self.count_occupied()}/{self.grid.cells})"
        )


def empty_configuration(grid: GridSpec) -> Configuration:
    return Configuration(grid, np.zeros(grid.shape, dtype=bool))


def full_configuration(grid: GridSpec) -> Configuration:
    return Configuration(grid, np.ones(grid.shape, dtype=bool))


def random_configuration(grid: GridSpec, p: float, stream: Stream) -> Configuration:
    """Each cell is occupied independently with probability ``p``.

    Cell ``i`` is occupied iff the ``i``-th uniform of ``stream`` is below
    ``p``, so two draws from the same stream at p1 < p2 are coupled: the
    p1 configuration is a subset of the p2 one.
    """
    _check_p(p)
    u = stream.uniforms(grid.cells)
    return Configuration(grid, (u < p).reshape(grid.shape))


def _check_int(value, what: str) -> int:
    """``value`` as a plain int, if it is a Python or numpy integer (not a
    bool): the one check that a size or count is an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_p(p: float) -> float:
    """``p``, if it lies in [0, 1]: the one check of a probability."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p


def occupy_rect(config: Configuration, rect: Rect) -> Configuration:
    """All cells of ``rect`` occupied, everything else unchanged."""
    rect.check_within(config.grid)
    out = config.copy()
    out.cells[rect.slices()] = True
    return out


def checkerboard_rect(config: Configuration, rect: Rect, parity: str) -> Configuration:
    """Occupy the cells of ``rect`` whose coordinate sum x+y matches ``parity``."""
    if config.grid.ndim != 2:
        raise ValueError("checkerboard_rect is only defined on 2-d grids")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    rect.check_within(config.grid)
    out = config.copy()
    (x0, y0), (ex, ey) = rect.corner, rect.extents
    xs = np.arange(x0, x0 + ex)
    ys = np.arange(y0, y0 + ey)
    want = 0 if parity == "even" else 1
    mask = ((xs[None, :] + ys[:, None]) % 2) == want
    out.cells[y0 : y0 + ey, x0 : x0 + ex] |= mask
    return out


def to_text(config: Configuration) -> str:
    """Render in the lattice text format (round-trip exact with :func:`from_text`)."""
    grid = config.grid
    lz, ly, lx = (1, 1, *grid.shape)[-3:]
    header = f"dims: {' '.join(str(d) for d in grid.dims)}\nboundary: {grid.boundary}\n"
    # One byte buffer: the header, then one run per z-block of its y-rows,
    # each "0"/"1" bytes plus "\n", and one "\n" that is the blank line
    # between blocks.  The last block's trailing "\n" is not decoded.
    h, block = len(header), ly * (lx + 1) + 1
    buf = np.full(h + lz * block, ord("\n"), dtype=np.uint8)
    buf[:h] = np.frombuffer(header.encode("ascii"), dtype=np.uint8)
    digits = buf[h:].reshape(lz, block)[:, :-1].reshape(lz, ly, lx + 1)[..., :lx]
    np.add(config.cells.reshape(lz, ly, lx), np.uint8(ord("0")), out=digits)
    return str(buf[:-1], "ascii")  # decoded from the buffer itself, no bytes copy


def from_text(text: str) -> Configuration:
    """Parse the lattice text format (see the module docstring)."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if len(lines) < 2 or not lines[0].startswith("dims:"):
        raise ValueError("expected a 'dims: ...' header line")
    dims = tuple(int(tok) for tok in lines[0][len("dims:") :].split())
    if not lines[1].startswith("boundary:"):
        raise ValueError("expected a 'boundary: ...' header line")
    boundary = lines[1][len("boundary:") :].strip()
    grid = GridSpec(dims, boundary)
    if dims[0] > _MAX_ROW:
        raise ValueError(
            f"rows of {dims[0]} cells are too long to parse; a row holds at most {_MAX_ROW}"
        )

    rows = [ln for ln in lines[2:] if ln.strip()]
    lx = dims[0]
    ly = dims[1] if grid.ndim >= 2 else 1
    lz = dims[2] if grid.ndim == 3 else 1
    body = None
    if len(rows) == ly * lz and all(len(r) == lx for r in rows):
        # One fixed-width byte array of the rows, shifted in place so that
        # one maximum range-checks it; it is the cells, viewed as booleans.
        try:
            body = np.array(rows, dtype=f"S{lx}").view(np.uint8)
        except UnicodeEncodeError:
            pass
        else:
            body -= ord("0")
            if body.max() > 1:
                body = None
    if body is None:
        # A bad character is reported before a body of the wrong shape.
        bad = next((ln for ln in rows if ln.strip("01")), None)
        if bad is not None:
            raise ValueError(f"invalid row characters in {bad!r}")
        raise ValueError(f"body does not match dims {dims}")
    return Configuration(grid, body.view(bool).reshape(grid.shape))
