"""Integer-to-ASCII digits for the numpy text writers
(``counting.TagStream.dump_csv`` and ``biphoton.export_matrix_csv``)."""

import numpy as np


def digits(values, columns: int):
    """The last ``columns`` decimal digits of the nonnegative integers
    ``values`` as ASCII, one row each, zero-padded."""
    out = np.empty((columns, len(values)), dtype=np.uint8)
    for k in range(columns - 1, -1, -1):
        quotient = values // 10
        out[k] = values - 10 * quotient
        values = quotient
    out += ord("0")
    return out.T
