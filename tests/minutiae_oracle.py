"""Reference code for the 32-bit minutia word: decode_minutia, the scalar
inverse of encode_minutia, one word at a time.

The shipped minutiae.decode_minutiae unpacks many words at once with
numpy; every field it returns must equal the one decode_minutia gives.
"""

from fuzzyvault.minutiae import COORD_MAX, THETA_STEPS, Minutia


def decode_minutia(rep: int) -> Minutia:
    """Inverse of encode_minutia up to orientation quantization; quality is 0."""
    return Minutia(
        x=(rep >> 21) & COORD_MAX,
        y=(rep >> 10) & COORD_MAX,
        theta=(rep & (THETA_STEPS - 1)) * 360.0 / THETA_STEPS,
    )
