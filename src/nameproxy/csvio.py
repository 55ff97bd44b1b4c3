"""The CSV framing every nameproxy file shares (RFC 4180, "\\n" line ends):
one header line that must match exactly, then records of its field count;
and the error for a text file that is not UTF-8.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager, nullcontext

from .errors import SchemaError


@contextmanager
def read_csv(path, header: list[str], fh=None, skipped: int = 0):
    """Check ``path``'s header line and yield an iterator over its records.

    A :class:`SchemaError` raised in the ``with`` block, by the iterator
    (a wrong field count) or by the caller, is raised again with the path
    and the file line the current record starts on; so is a record the csv
    module cannot parse, and bytes that are not UTF-8 raise
    :func:`not_utf8`'s.  A UTF-8 byte order mark is skipped.
    ``fh`` is the file already open with ``skipped`` lines read; by
    default ``path`` is opened.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") if fh is None else nullcontext(fh) as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got != header:
                raise SchemaError(f"{path}: expected header {header}, got {got}")
            width = len(header)

            def records():
                for row in reader:
                    if len(row) != width:
                        raise SchemaError(f"expected {width} fields, got {len(row)}")
                    yield row

            try:
                yield records()
            except SchemaError as exc:
                line = _record_start(path, skipped, reader.line_num)
                raise SchemaError(f"{path}: line {line}: {exc}") from exc.__cause__
    except UnicodeDecodeError as exc:
        raise not_utf8(path) from exc
    except csv.Error as exc:
        raise SchemaError(
            f"{path}: line {_record_start(path, skipped)}: cannot parse the record that "
            f"starts here (an unclosed quote?): {exc}"
        ) from exc


def _record_start(path, skipped: int, end: int | None = None) -> int:
    """The file line a record of ``path``, ``skipped`` lines in, starts on:
    the record whose reader line count is ``end``, or else the one the csv
    module gave up on.

    The reader stops below that line when the record spans lines: a quoted
    field may hold line breaks, and a quote left open runs its field on
    over the following lines (up to the field size limit).  So the file is
    read again, a record at a time, to find it.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for _ in range(skipped):
            fh.readline()
        reader = csv.reader(fh)
        ended = 0  # the line the last record before it ends on
        try:
            for _ in reader:
                if reader.line_num == end:
                    break
                ended = reader.line_num
        except csv.Error:
            pass
    return skipped + ended + 1


def not_utf8(path) -> SchemaError:
    """The error for ``path``, a text file that does not decode as UTF-8:
    it names the line of the first bad byte and that byte.

    Text is decoded a block at a time, so the line a reader had reached
    when decoding failed can lie before the bad byte; the file is read
    again, a line at a time, to find it.  No UTF-8 sequence holds a
    newline byte, so a file decodes exactly when each of its lines does.
    """
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return SchemaError(
                    f"{path}: line {number}: not UTF-8 text "
                    f"(byte 0x{raw[exc.start]:02x}: {exc.reason})"
                )
    return SchemaError(f"{path}: not UTF-8 text")


def framed(fields) -> str:
    """``fields`` as :func:`write_csv` frames them within a record, without a
    line end: text to join with "," to other framed text, or to text that
    needs no quoting, such as formatted numbers."""
    buf = io.StringIO()
    # a trailing empty field: a record of one empty field alone is quoted
    csv.writer(buf, lineterminator="\n").writerow([*fields, ""])
    return buf.getvalue()[:-2]


def write_csv(path, header: list[str], rows=(), text: tuple[int, ...] = (), preamble: str = "",
              lines=()):
    """Write ``preamble`` as it is, then ``header`` and ``rows``, then
    ``lines``, records already framed (see :func:`framed`) that each end in
    "\\n".

    ``text`` holds the indices of free-text columns (names, geo ids, table
    keys); a row with a "\\r" in one of them is quoted in full, since with
    "\\n" line ends the csv writer before Python 3.13 leaves a lone "\\r"
    unquoted.  Race labels never hold one (see :class:`core.RaceSet`).
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(preamble)
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if not text:
            writer.writerows(rows)
        else:
            quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            for row in rows:
                (quote_all if any("\r" in row[i] for i in text) else writer).writerow(row)
        fh.writelines(lines)
