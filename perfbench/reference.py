"""The fixed reference computation that job times are divided by.

    python3 perfbench/reference.py 20

runs it 20 times in a fresh interpreter and prints the wall time of one
call in seconds.  It calls no mirrorcalc code, so a change to mirrorcalc
moves a job's time and leaves the reference's alone.
"""

import sys
import time
from fractions import Fraction


def reference_work() -> list[Fraction]:
    """The first 60 coefficients of the reciprocal of a rational power
    series, by the schoolbook recurrence.  Its coefficients grow into
    big integers, so it mixes small and large rational arithmetic like
    the jobs do."""
    n = 60
    a = [Fraction((-1) ** k * (k + 1), k + 2) for k in range(n)]
    b = [1 / a[0]]
    for k in range(1, n):
        b.append(-sum(a[j] * b[k - j] for j in range(1, k + 1)) / a[0])
    return b


def time_reference(calls: int) -> float:
    """Wall time of one ``reference_work`` call, averaged over
    ``calls``."""
    start = time.perf_counter()
    for _ in range(calls):
        reference_work()
    return (time.perf_counter() - start) / calls


if __name__ == "__main__":
    print(repr(time_reference(int(sys.argv[1]))))
