"""Integer-to-ASCII digits for the numpy text writers
(``counting.TagStream.dump_csv`` and ``biphoton.export_matrix_csv``).

The writers lay their text out by byte position: row ``j`` of a uint8
array holds byte ``j`` of every field, so that each digit position is one
contiguous write, and the array's transpose holds the fields in order."""

import numpy as np


def digit_work(size: int):
    """Scratch arrays that :func:`digits` reuses for up to ``size`` values."""
    return np.empty((2, size), np.int64), np.empty((3, size), np.int32)


def digits(values, out, work=None) -> None:
    """Write the last ``len(out)`` decimal digits of the nonnegative int64
    integers ``values`` as ASCII into the uint8 array ``out`` of shape
    ``(columns, len(values))``, most significant digit first, zero-padded.
    The digits are split off in int32 blocks of at most eight, in the
    arrays of ``work`` (:func:`digit_work`, allocated here if not given);
    ``values`` is left unchanged."""
    n = len(values)
    wide, narrow = digit_work(n) if work is None else work
    high, low = wide[0, :n], wide[1, :n]
    block, quotient, rest = narrow[0, :n], narrow[1, :n], narrow[2, :n]
    for end in range(len(out), 0, -8):
        width = min(end, 8)
        np.divmod(values, 10 ** width, out=(high, low))
        values = high
        block[...] = low
        for k in range(end - 1, end - 1 - width, -1):
            np.floor_divide(block, 10, out=quotient)
            np.multiply(quotient, 10, out=rest)
            np.subtract(block, rest, out=rest)
            out[k] = rest
            block, quotient = quotient, block
    out += ord("0")
