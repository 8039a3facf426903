"""The artifact format: every CSV table and ``key = value`` summary is written
here, with ``\\n`` line ends, integers as ``%d`` and floats as ``%.17g``, which
round-trips a double, so two runs of one scenario give byte-identical files.
"""

from itertools import chain, islice

# rows per %-format call: cheaper than one call per row, and the string stays
# small (one string for a whole dtn.csv raised peak memory by the file's size)
_CHUNK = 1024


def write_csv(path, header: str, row_format: str, rows) -> None:
    """Write the ``header`` line, then ``row_format % row`` for each row tuple."""
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        while chunk := list(islice(rows, _CHUNK)):
            fh.write(((row_format + "\n") * len(chunk)) % tuple(chain.from_iterable(chunk)))


def write_summary(path, pairs) -> None:
    """One ``key = value`` line per pair; complex and float values at 17 digits."""
    with open(path, "w", newline="") as fh:
        for key, val in pairs:
            if isinstance(val, complex):
                fh.write(f"{key} = {val.real:.17g}{val.imag:+.17g}j\n")
            elif isinstance(val, float):
                fh.write(f"{key} = {val:.17g}\n")
            else:
                fh.write(f"{key} = {val}\n")
