"""Bit-exact persistence: a binary factor format and a text matrix format.

Factor files ("BHF2"):

    offset  size            content
    0       4               magic bytes "BHF2"
    4       20              five little-endian uint32: m, n, placement
                            (0 = TOP, 1 = BOTTOM), count k, bandwidth w
    24      8 k w           free entries, little-endian IEEE-754 doubles,
                            row-major by reflection
    24+8kw  8 n^2           core, row-major

The total length is exactly 24 + 8 (k w + n^2) bytes, n(m - n) + n^2
doubles, and a write/read round trip is bit-identical. No beta is stored:
BandedReflectors derives each from its tail. Any other magic, the BHF1
format that also stored k betas included, is rejected.

Matrix text files: a header line "m n" followed by m lines of n numbers
separated by single spaces. The writer emits 17 significant digits,
which round-trips every finite double exactly; each value is written as
"%.17g", byte for byte what format(x, ".17g") writes.

The text must be ASCII, from a path as from a stream: the first other
character, a UTF-8 byte order mark or a no-break space say, raises
MatrixFormatError naming its value and offset (a byte of a file, a
character of a stream). A path is decoded as latin-1, one character per
byte, so both are checked by the one str.isascii() rule. The reader
splits lines on "\n", from either source, and tokens on any whitespace,
so CRLF line ends are accepted and a lone "\r" is a token separator, not
a line end. Each token must parse as Python float() parses it ("1_0" and
"1e-400" are accepted and read as 10.0 and 0.0); a token that parses to
NaN or +-Inf, "1e400" included, is rejected. A well-formed file is parsed
by one np.loadtxt call (comments=None) over its m body lines, at 0.3-0.6
us per 17-digit value on a 2-core x86-64 VM.
Every other file goes through a line by line scan, which decides what is
accepted and raises MatrixFormatError for the first defect in file order.

The writer works on whole rows, about _CHUNK_VALUES values per "%"
template, so the per-value Python objects alive at once stay few whatever
the matrix size.
"""

import math
import struct

import numpy as np

from .factor import BandedReflectors, CompactSubspaceFactor, Placement, as_matrix

__all__ = [
    "FactorFormatError",
    "BadMagicError",
    "TruncatedPayloadError",
    "DimensionError",
    "MatrixFormatError",
    "write_factor",
    "read_factor",
    "write_matrix",
    "read_matrix",
]

MAGIC = b"BHF2"
_HEADER = struct.Struct("<5I")
_CHUNK_VALUES = 1 << 14  # matrix text: values per "%" template
_READ_PIECE = 1 << 24  # factor payload: most bytes asked of the stream at once


class FactorFormatError(ValueError):
    """A factor byte stream violates the format."""


class BadMagicError(FactorFormatError):
    """The stream does not start with the BHF2 magic."""


class TruncatedPayloadError(FactorFormatError):
    """The stream ended before the declared payload was complete."""


class DimensionError(FactorFormatError):
    """Header dimensions are internally inconsistent."""


class MatrixFormatError(ValueError):
    """A matrix text file is malformed."""


def write_factor(f: CompactSubspaceFactor, sink) -> int:
    """Serialize f to a binary stream; returns the exact byte count."""
    g = f.reflectors
    m, n = g.ambient_dim, f.core.shape[0]
    k, w = g.count, g.bandwidth
    sink.write(MAGIC)
    sink.write(_HEADER.pack(m, n, f.placement.value, k, w))
    sink.write(g.free_entries.astype("<f8", copy=False).tobytes())
    sink.write(f.core.astype("<f8", copy=False).tobytes())
    return len(MAGIC) + _HEADER.size + 8 * (k * w + n * n)


def _read_exact(source, nbytes: int, offset: int, what: str) -> bytes:
    # Read in pieces, so a header that declares more than the stream holds
    # costs at most one piece of memory before it is rejected.
    pieces, got = [], 0
    while got < nbytes:
        piece = source.read(min(nbytes - got, _READ_PIECE))
        if not piece:
            break
        pieces.append(piece)
        got += len(piece)
    if got != nbytes:
        raise TruncatedPayloadError(
            f"truncated {what} at byte {offset}: expected {nbytes} bytes, "
            f"got {got}"
        )
    return b"".join(pieces)


def read_factor(source) -> CompactSubspaceFactor:
    """Parse one factor record from a binary stream.

    The header's m is redundant: the reflectors derive their dimension
    from k and w, so m must equal k + w, which is checked here only, before
    the payload is read. Besides the layout, the payload must be finite.
    The tails must obey the one tail rule, which the reader does not check
    itself: it hands them to BandedReflectors and raises that rule's
    ValueError as a FactorFormatError with the same message. Every beta is
    derived from its tail, so any factor that reads back describes an
    orthogonal G. The payload is only viewed; the factor copies what it
    keeps, so it holds about the record's size.
    """
    magic = _read_exact(source, len(MAGIC), 0, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    header = _read_exact(source, _HEADER.size, len(MAGIC), "header")
    m, n, placement_value, k, w = _HEADER.unpack(header)
    if placement_value not in (0, 1):
        raise DimensionError(
            f"invalid placement {placement_value} at byte 12, expected 0 or 1"
        )
    placement = Placement(placement_value)
    if k + w != m:
        raise DimensionError(
            f"inconsistent header at byte 16: count {k} + bandwidth {w} != m {m}"
        )
    expected_k = n if placement is Placement.TOP else m - n
    if k != expected_k:
        raise DimensionError(
            f"inconsistent header at byte 16: {placement.name} placement with "
            f"m={m}, n={n} requires count {expected_k}, got {k}"
        )
    count = k * w + n * n
    payload = _read_exact(source, 8 * count, len(MAGIC) + _HEADER.size, "payload")
    doubles = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(doubles).all():
        raise FactorFormatError("payload contains non-finite values")
    try:
        g = BandedReflectors(doubles[: k * w].reshape(k, w))
    except ValueError as exc:  # a tail too long for BandedReflectors' rule
        raise FactorFormatError(str(exc)) from None
    return CompactSubspaceFactor(g, doubles[k * w :].reshape(n, n), placement)


def _matrix_text(a: np.ndarray) -> str:
    m, n = a.shape
    row_format = " ".join(["%.17g"] * n)
    step = max(1, _CHUNK_VALUES // max(n, 1))
    parts = [f"{m} {n}"]
    for s in range(0, m, step):
        rows = a[s : s + step]
        template = "\n".join([row_format] * rows.shape[0])
        parts.append(template % tuple(rows.ravel().tolist()))
    parts.append("")  # the text ends with a newline
    return "\n".join(parts)


def write_matrix(a, dest) -> int:
    """Write a in text form to a path or text stream; returns byte count."""
    text = _matrix_text(as_matrix(a)[0])
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)
    return len(text)  # the text is ASCII: one byte per character


def _read_header(line: str) -> tuple[int, int]:
    if not line.strip():
        raise MatrixFormatError("empty file: missing 'm n' header at line 1")
    header = line.split()
    if len(header) != 2:
        raise MatrixFormatError(
            f"malformed header at line 1: expected 'm n', got {line!r}"
        )
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError(
            f"malformed header at line 1: expected integers, got {line!r}"
        ) from None
    if m < 0 or n < 0:
        raise MatrixFormatError(f"negative dimensions at line 1: {m} x {n}")
    return m, n


def _parse_row(line: str, n: int, lineno: int) -> list[float]:
    tokens = line.split()
    if len(tokens) != n:
        raise MatrixFormatError(
            f"shape error at line {lineno}: expected {n} values, got {len(tokens)}"
        )
    values = []
    for tok in tokens:
        try:
            x = float(tok)
        except ValueError:
            raise MatrixFormatError(
                f"malformed number {tok!r} at line {lineno}"
            ) from None
        if not math.isfinite(x):
            raise MatrixFormatError(
                f"non-finite value {tok!r} at line {lineno}"
            )
        values.append(x)
    return values


def _scan_rows(lines: list[str], m: int, n: int) -> np.ndarray:
    """Parse the body line by line, raising on the first defect in file order."""
    rows = []
    for i in range(m):
        blank = 1 + i >= len(lines) or (n > 0 and not lines[1 + i].strip())
        if blank:
            raise MatrixFormatError(
                f"row-count mismatch: expected {m} rows, data ends at line {1 + i}"
            )
        rows.append(_parse_row(lines[1 + i], n, 2 + i))
    for extra, line in enumerate(lines[1 + m :]):
        if line.strip():
            raise MatrixFormatError(
                f"row-count mismatch: unexpected data at line {2 + m + extra}"
            )
    return np.array(rows, dtype=np.float64).reshape(m, n)


def read_matrix(src) -> np.ndarray:
    """Read a matrix from a path or text stream in the text format."""
    if hasattr(src, "read"):
        text = src.read()
    else:  # latin-1 decodes every byte, one character each, and keeps "\r"
        with open(src, "rb") as fh:
            text = fh.read().decode("latin-1")
    if not text.isascii():
        at = next(i for i, c in enumerate(text) if not c.isascii())
        raise MatrixFormatError(f"not an ASCII file: byte 0x{ord(text[at]):02x} at offset {at}")
    lines = text.split("\n")
    m, n = _read_header(lines[0])
    body = lines[1 : 1 + m]
    # loadtxt skips blank lines, so files with one go to the scan;
    # comments=None keeps "#" a token, which the scan rejects.
    if (m and n and len(body) == m and all(line.strip() for line in body)
            and not any(line.strip() for line in lines[1 + m :])):
        try:
            out = np.loadtxt(body, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if out.shape == (m, n) and np.isfinite(out).all():
                return out
    return _scan_rows(lines, m, n)
