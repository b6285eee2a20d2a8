"""Integer-to-ASCII digits for the numpy text writers
(``counting.TagStream.dump_csv`` and ``biphoton.export_matrix_csv``).

The writers lay their text out by byte position: row ``j`` of a uint8
array holds byte ``j`` of every field, so that each digit position is one
contiguous write, and the array's transpose holds the fields in order."""

import numpy as np


def digits(values, out) -> None:
    """Write the last ``len(out)`` decimal digits of the nonnegative int64
    integers ``values`` as ASCII into the uint8 array ``out`` of shape
    ``(columns, len(values))``, most significant digit first, zero-padded.
    The digits are split off in int32 blocks of at most eight."""
    for end in range(len(out), 0, -8):
        width = min(end, 8)
        values, block = np.divmod(values, 10 ** width)
        block = block.astype(np.int32)
        for k in range(end - 1, end - 1 - width, -1):
            quotient = block // 10
            out[k] = block - 10 * quotient
            block = quotient
    out += ord("0")
