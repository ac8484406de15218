"""Reference code for the vault point rule: check_point_pairs as first
written, every coordinate of every entry through the integer check and the
range check.

The shipped check_point_pairs passes a list of two plain ints on one test
and falls back to the full rule for anything else; it must give the same
verdict and the same message for every input.
"""

WORD_BITS = 32
_WORD_LIMIT = 1 << WORD_BITS


def check_integer(value, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")


def check_point_pairs(pairs) -> None:
    if not isinstance(pairs, list):
        raise ValueError("points must be a list")
    for i, entry in enumerate(pairs):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValueError(f"points[{i}] must be a [X, Y] pair")
        for coord in entry:
            check_integer(coord, f"points[{i}] coordinates")
            if not 0 <= coord < _WORD_LIMIT:
                raise ValueError(f"points[{i}] coordinates must fit in {WORD_BITS} bits")
