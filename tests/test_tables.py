import sys

import numpy as np
import pytest

from gratescat.tables import write_csv

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 1 / 3, 1.0]


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025])
def test_write_csv_matches_one_format_per_row(tmp_path, n):
    # the chunked %-format gives the bytes of one format(..., ".17g") per cell,
    # across the 1024-row chunk boundary
    rng = np.random.default_rng(n)
    floats = rng.choice([-1.0, 1.0], 2 * n) * 10.0 ** rng.uniform(-300, 300, 2 * n)
    floats[:len(SPECIAL)] = SPECIAL[:2 * n]
    rows = [(np.int64(i - 600), np.bool_(i % 3 == 0), floats[2 * i], np.float64(floats[2 * i + 1]))
            for i in range(n)]
    path = tmp_path / "t.csv"
    write_csv(path, "i,flag,a,b", "%d,%d,%.17g,%.17g", rows)
    want = "i,flag,a,b\n" + "".join(f"{int(i)},{int(flag)},{format(a, '.17g')},{format(b, '.17g')}\n"
                                    for i, flag, a, b in rows)
    assert path.read_bytes() == want.encode()
