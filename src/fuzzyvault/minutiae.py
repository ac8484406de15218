"""Minutia data model, template ingestion, placement and the 32-bit encoding.

Templates arrive as ``.xyt`` text: one minutia per line as whitespace
separated integers ``x y theta [quality]``.  A minutia packs into one
32-bit word (x in the top 11 bits, y in the middle 11, quantized theta
in the low 10) that doubles as a field element, so locations can be
hidden among chaff in a vault.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable, Sequence

import numpy as np

COORD_MAX = 2047  # 11 bits for each coordinate
THETA_STEPS = 1024  # 10 bits for orientation
_X_SHIFT, _Y_SHIFT = 21, 10  # bit offsets of x and y in a packed minutia

CHAFF_ATTEMPTS = 10_000  # rejection draws place_spaced allows per point
_STRIDE = 1 << 32  # spacing cell (i, j) has key i * _STRIDE + j; no coordinate reaches it


class ParseError(ValueError):
    """Raised for malformed template text."""


class OutOfBounds(ValueError):
    """Raised when a minutia does not fit the image or the 32-bit encoding."""


class InsufficientMinutiae(Exception):
    """Raised when a template cannot supply the requested minutia count.

    The operational answer is to capture the finger again.
    """


class ChaffExhausted(RuntimeError):
    """Raised when place_spaced finds no admissible draw for a point."""


@dataclass(frozen=True)
class Minutia:
    x: int
    y: int
    theta: float  # degrees, [0, 360)
    quality: int = 0


@dataclass(frozen=True)
class Template:
    """An ordered minutia list plus the bounds it lives in."""

    minutiae: tuple[Minutia, ...]
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        for m in self.minutiae:
            if not (0 <= m.x < self.width and 0 <= m.y < self.height):
                raise OutOfBounds(f"minutia ({m.x}, {m.y}) outside {self.width}x{self.height}")
            if m.x > COORD_MAX or m.y > COORD_MAX:
                raise OutOfBounds(f"minutia ({m.x}, {m.y}) exceeds the 11-bit coordinate range")
            if not 0.0 <= m.theta < 360.0:  # NaN fails too
                raise OutOfBounds(f"minutia theta {m.theta} outside [0, 360)")

    def __len__(self) -> int:
        return len(self.minutiae)


def fold_angle(theta: float) -> float:
    """theta in degrees, folded into [0, 360).

    theta % 360.0 alone rounds an angle just below 0, such as -1e-20, up to
    360.0; that is 0.0 here.
    """
    theta %= 360.0
    return 0.0 if theta == 360.0 else theta


def parse_template(text: str, width: int, height: int) -> Template:
    """Parse ``x y theta [quality]`` lines into a Template.

    Blank lines are skipped, a missing quality defaults to 0 and theta is
    normalized into [0, 360).

    Raises:
        ParseError: malformed fields or a wrong field count.
        OutOfBounds: coordinates outside the image or the encodable range.
    """
    minutiae = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if not line.isascii() or "_" in line:  # int() and float() read "1_0" and "١٢"
            raise ParseError(f"line {lineno}: non-ASCII character or '_' in {line!r}")
        parts = line.split()
        if len(parts) not in (3, 4):
            raise ParseError(f"line {lineno}: expected 'x y theta [quality]', got {len(parts)} fields")
        try:
            x, y = int(parts[0]), int(parts[1])
            theta = float(parts[2])  # angles may carry decimals
            quality = int(parts[3]) if len(parts) == 4 else 0
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed field in {line!r}") from exc
        if not math.isfinite(theta):
            raise ParseError(f"line {lineno}: non-finite angle in {line!r}")
        if not (0 <= x < width and 0 <= y < height):
            raise OutOfBounds(f"line {lineno}: ({x}, {y}) outside {width}x{height}")
        minutiae.append(Minutia(x, y, fold_angle(theta), quality))
    return Template(tuple(minutiae), width, height)


def read_template(path, width: int, height: int) -> Template:
    return parse_template(Path(path).read_text(), width, height)


class _SpacingGrid:
    """Placed points bucketed in square cells for the one spacing rule of
    minutia selection, chaff and synthetic templates: (x, y) is spaced when
    dx^2 + dy^2 >= distance^2 against every placed point.

    The cell edge is at least |distance|, so a point two cells away is more
    than an edge apart on integer coordinates; only the 3x3 neighbourhood
    of a query is tested, with the same comparison, so every query gets the
    answer a scan of all placed points would give.
    """

    def __init__(self, distance: float, placed: Sequence[Minutia] = ()):
        self._d2 = distance * distance
        # inf and NaN reject every pair (d2 is inf, or compares False): one cell holds all
        self._edge = max(1, math.ceil(abs(distance))) if math.isfinite(distance) else _STRIDE
        self._cells: dict[int, list[tuple[int, int]]] = {}
        for m in placed:
            self.add(m.x, m.y)

    def spaced(self, x: int, y: int) -> bool:
        edge, d2, cells = self._edge, self._d2, self._cells
        key = x // edge * _STRIDE + y // edge
        for row in (key - _STRIDE, key, key + _STRIDE):
            for k in (row - 1, row, row + 1):
                if k in cells:
                    for px, py in cells[k]:
                        if not (x - px) ** 2 + (y - py) ** 2 >= d2:  # not <: NaN rejects
                            return False
        return True

    def add(self, x: int, y: int) -> None:
        self._cells.setdefault(x // self._edge * _STRIDE + y // self._edge, []).append((x, y))


def place_spaced(what: str, count: int, width: int, height: int, distance: float, rng: Random,
                 finish: Callable[[int, int], object], around: Sequence[Minutia] = ()) -> list:
    """Place ``count`` points, named ``what`` in errors, by rejection sampling.

    x and y are drawn as rng.randrange(width), rng.randrange(height) draw them
    (ValueError on an empty range) and rejected unless spaced from ``around``
    and every point placed before; ``finish(x, y)`` then draws the rest of the
    point from the same rng and returns it, or None to reject it.  Raises
    ChaffExhausted when a point finds no admissible draw in CHAFF_ATTEMPTS.
    """
    if width < 1 or height < 1:
        raise ValueError(f"empty range for {what} coordinates in {width}x{height}")
    grid = _SpacingGrid(distance, around)
    getrandbits, kx, ky = rng.getrandbits, width.bit_length(), height.bit_length()
    placed = []
    for i in range(count):
        for _ in range(CHAFF_ATTEMPTS):
            x = getrandbits(kx)
            while x >= width:
                x = getrandbits(kx)
            y = getrandbits(ky)
            while y >= height:
                y = getrandbits(ky)
            if grid.spaced(x, y) and (p := finish(x, y)) is not None:
                break
        else:
            raise ChaffExhausted(f"cannot place {what} {i + 1} of {count} {distance:g} px apart "
                                 f"in {width}x{height} within {CHAFF_ATTEMPTS} draws")
        grid.add(x, y)
        placed.append(p)
    return placed


def select_minutiae(template: Template, count: int, points_distance: float) -> list[Minutia]:
    """Pick ``count`` well-separated minutiae, best quality first.

    Greedy scan in descending quality (ties keep file order); a minutia is
    accepted only if it is spaced from every already-accepted one.

    Raises:
        InsufficientMinutiae: the scan ran out before reaching ``count``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = _SpacingGrid(points_distance)
    chosen: list[Minutia] = []
    for m in sorted(template.minutiae, key=lambda m: -m.quality):
        if grid.spaced(m.x, m.y):
            grid.add(m.x, m.y)
            chosen.append(m)
            if len(chosen) == count:
                return chosen
    raise InsufficientMinutiae(
        f"template yields {len(chosen)} separated minutiae, {count} required; rescan the finger"
    )


def encode_minutia(m: Minutia) -> int:
    """Pack a minutia into one 32-bit word: x:11 bits, y:11 bits, theta:10 bits.

    Orientation is quantized to floor(theta * 1024 / 360).

    Raises:
        OutOfBounds: coordinates over 2047 or theta outside [0, 360).
    """
    if not (0 <= m.x <= COORD_MAX and 0 <= m.y <= COORD_MAX):
        raise OutOfBounds(f"({m.x}, {m.y}) exceeds the 11-bit coordinate range")
    if not 0 <= m.theta < 360:
        raise OutOfBounds(f"theta {m.theta} outside [0, 360)")
    return pack_minutia(m.x, m.y, m.theta)


def pack_minutia(x: int, y: int, theta: float) -> int:
    """encode_minutia without its checks, for x, y in [0, 2047] and theta in [0, 360)."""
    return (x << _X_SHIFT) | (y << _Y_SHIFT) | int(theta * THETA_STEPS / 360)


def decode_minutiae(words: Sequence[int]) -> np.ndarray:
    """Unpack many words at once: x, y, theta per row, shape (k, 3).

    Every value equals the matching field of decode_minutia, the scalar oracle in
    tests/minutiae_oracle.py, exactly, since theta is the same float64 multiply and divide.
    """
    w = np.asarray(words, dtype=np.int64)
    return np.stack([
        (w >> _X_SHIFT) & COORD_MAX,
        (w >> _Y_SHIFT) & COORD_MAX,
        (w & (THETA_STEPS - 1)) * 360.0 / THETA_STEPS,
    ], axis=1)
