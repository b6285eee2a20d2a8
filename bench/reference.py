"""Fixed reference task that measures the host's speed.

The harness runs it as its own process between workload iterations and
scales each iteration's times by the reference's time around it (see
``run.py``).  It does a little of each kind of work the workloads do:
interpreter start, ``import numpy``, FFTs, formatting floats to a CSV file,
reading it back and a pure-Python loop.  It does not import spdclab, so a
change to the program under test cannot change it::

    python3 bench/reference.py scratch.csv
"""

import sys

import numpy as np

a = np.random.default_rng(12345).standard_normal((320, 320))
for _ in range(4):
    np.fft.fft2(a)
with open(sys.argv[1], "w") as fh:
    np.savetxt(fh, a, fmt="%.10e", delimiter=",")
back = np.loadtxt(sys.argv[1], delimiter=",")
if not np.allclose(back, a):
    sys.exit("reference: CSV round trip changed the matrix")
total = 0
for i in range(250_000):
    total += i * i
