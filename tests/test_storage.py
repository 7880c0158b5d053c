import io
import struct
import tracemalloc

import numpy as np
import pytest

from bandedhh import (
    BadMagicError,
    DimensionError,
    TruncatedPayloadError,
    FactorFormatError,
    MatrixFormatError,
    factor_auto,
    factor_complement,
    factor_tall,
    read_factor,
    read_matrix,
    reconstruct_a,
    write_factor,
    write_matrix,
)
from bandedhh.storage import _CHUNK_VALUES


def factor_bytes(f):
    buf = io.BytesIO()
    count = write_factor(f, buf)
    data = buf.getvalue()
    assert count == len(data)
    return data


def make_factor(m, n, seed=0, complement=False):
    a = np.random.default_rng(seed).standard_normal((m, n))
    return factor_complement(a) if complement else factor_tall(a), a


class TestFactorFormat:
    def test_seven_by_four_length(self):
        f, _ = make_factor(7, 4)
        data = factor_bytes(f)
        assert len(data) == 280  # 24 + 8 * (4 + 12 + 16)
        assert write_factor(f, io.BytesIO()) == 280

    def test_square_length(self):
        f, _ = make_factor(3, 3)
        assert len(factor_bytes(f)) == 120  # 24 + 8 * (3 + 0 + 9)

    def test_zero_column_length(self):
        f = factor_tall(np.zeros((4, 0)))
        assert len(factor_bytes(f)) == 24

    def test_roundtrip_bit_identical(self):
        for complement in (False, True):
            f, _ = make_factor(9, 5, seed=1, complement=complement)
            data = factor_bytes(f)
            g = read_factor(io.BytesIO(data))
            assert factor_bytes(g) == data
            assert g.reflectors.free_entries.tobytes() == f.reflectors.free_entries.tobytes()
            assert g.reflectors.betas.tobytes() == f.reflectors.betas.tobytes()
            assert g.core.tobytes() == f.core.tobytes()
            assert g.placement == f.placement

    def test_end_to_end_reconstruction(self):
        f, a = make_factor(20, 7, seed=2)
        g = read_factor(io.BytesIO(factor_bytes(f)))
        err = np.linalg.norm(reconstruct_a(g) - a) / np.linalg.norm(a)
        assert err <= 1e-12

    def test_bad_magic(self):
        f, _ = make_factor(7, 4)
        data = b"XHF1" + factor_bytes(f)[4:]
        with pytest.raises(BadMagicError, match="byte 0"):
            read_factor(io.BytesIO(data))

    def test_truncated_header(self):
        f, _ = make_factor(7, 4)
        data = factor_bytes(f)[:10]
        with pytest.raises(TruncatedPayloadError, match="expected"):
            read_factor(io.BytesIO(data))

    def test_truncated_payload(self):
        f, _ = make_factor(7, 4)
        data = factor_bytes(f)[:-8]
        with pytest.raises(TruncatedPayloadError) as excinfo:
            read_factor(io.BytesIO(data))
        assert "expected 256 bytes, got 248" in str(excinfo.value)

    def test_inconsistent_band(self):
        f, _ = make_factor(7, 4)
        data = bytearray(factor_bytes(f))
        data[20:24] = (9).to_bytes(4, "little")  # bandwidth 9: k + w != m
        with pytest.raises(DimensionError, match="bandwidth"):
            read_factor(io.BytesIO(bytes(data)))

    def test_invalid_placement(self):
        f, _ = make_factor(7, 4)
        data = bytearray(factor_bytes(f))
        data[12:16] = (7).to_bytes(4, "little")
        with pytest.raises(DimensionError, match="placement"):
            read_factor(io.BytesIO(bytes(data)))

    def test_placement_count_mismatch(self):
        f, _ = make_factor(7, 4)
        data = bytearray(factor_bytes(f))
        data[12:16] = (1).to_bytes(4, "little")  # claim BOTTOM with k = n
        with pytest.raises(DimensionError, match="BOTTOM"):
            read_factor(io.BytesIO(bytes(data)))

    def test_non_finite_payload_rejected(self):
        f, _ = make_factor(7, 4)
        data = bytearray(factor_bytes(f))
        data[24:32] = np.float64(np.nan).tobytes()
        with pytest.raises(FactorFormatError, match="non-finite"):
            read_factor(io.BytesIO(bytes(data)))

    # Consistent headers that declare far more payload than the file holds:
    # 74.4 MB, and more bytes than an index-sized integer can count.
    OVERSIZED = [(3100, 3000, 0, 3000, 100), (2**31, 2**31 - 2, 0, 2**31 - 2, 2)]

    @staticmethod
    def oversized(header):
        return b"BHF1" + struct.pack("<5I", *header) + bytes(64)

    @pytest.mark.parametrize("header", OVERSIZED)
    def test_oversized_header_is_truncated(self, tmp_path, header):
        data = self.oversized(header)
        with pytest.raises(TruncatedPayloadError, match="^truncated payload at byte 24: .*got 64$"):
            read_factor(io.BytesIO(data))
        (tmp_path / "f.bhf").write_bytes(data)
        with open(tmp_path / "f.bhf", "rb") as fh:
            with pytest.raises(TruncatedPayloadError, match="got 64$"):
                read_factor(fh)

    def test_oversized_header_allocation_bounded(self, tmp_path):
        (tmp_path / "f.bhf").write_bytes(self.oversized(self.OVERSIZED[0]))
        tracemalloc.start()
        try:
            with open(tmp_path / "f.bhf", "rb") as fh:
                with pytest.raises(TruncatedPayloadError):
                    read_factor(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_read_factor_owns_its_arrays(self):
        f, _ = make_factor(9, 4, seed=6)
        g = read_factor(io.BytesIO(factor_bytes(f)))
        assert g.core.base is None
        assert g.reflectors.free_entries.base is None
        assert g.reflectors.betas.base is None

    def test_read_factor_holds_about_the_file_size(self):
        data = factor_bytes(factor_auto(np.random.default_rng(7).standard_normal((1024, 256))))
        source = io.BytesIO(data)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            f = read_factor(source)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert f.core.shape == (256, 256)
        assert held <= 1.1 * len(data)

    def test_payload_spanning_several_reads(self):
        class Trickle(io.BytesIO):
            def read(self, size=-1):
                return super().read(min(size, 5))

        f, _ = make_factor(9, 4, seed=5)
        data = factor_bytes(f)
        assert factor_bytes(read_factor(Trickle(data))) == data


class TestReflectionValidation:
    # betas start at byte 24, free entries at byte 24 + 8k, row by reflection
    def corrupted(self, f, offset, value):
        data = bytearray(factor_bytes(f))
        data[offset : offset + 8] = np.float64(value).tobytes()
        return io.BytesIO(bytes(data))

    @pytest.mark.parametrize("beta", [0.5, 2.5])
    def test_beta_out_of_range(self, beta):
        f, _ = make_factor(9, 4, seed=4)
        with pytest.raises(FactorFormatError, match=r"neither 0 nor in \[1, 2\]"):
            read_factor(self.corrupted(f, 24 + 8 * 2, beta))

    def test_beta_off_by_relative_1e9(self):
        f, _ = make_factor(9, 4, seed=4)
        g = f.reflectors
        i = int(np.argmin(g.betas))  # the largest t't, so beta is inside (1, 2)
        with pytest.raises(FactorFormatError, match="not orthogonal"):
            read_factor(self.corrupted(f, 24 + 8 * i, g.betas[i] * (1 + 1e-9)))

    def test_free_entry_off_by_relative_1e9(self):
        f, _ = make_factor(9, 4, seed=4)
        g = f.reflectors
        k, w = g.free_entries.shape
        i = int(np.argmin(g.betas))
        j = int(np.argmax(np.abs(g.free_entries[i])))
        offset = 24 + 8 * k + 8 * (i * w + j)
        with pytest.raises(FactorFormatError, match="not orthogonal"):
            read_factor(self.corrupted(f, offset, g.free_entries[i, j] * (1 + 1e-9)))

    @pytest.mark.parametrize(
        "m,n", [(512, 64), (1000, 200), (4096, 512), (1000, 900), (1200, 1000)]
    )
    def test_benchmark_shapes_roundtrip(self, m, n):
        a = np.random.default_rng(m + n).standard_normal((m, n))
        data = factor_bytes(factor_auto(a))
        assert factor_bytes(read_factor(io.BytesIO(data))) == data

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    @pytest.mark.parametrize("method", [factor_tall, factor_complement])
    @pytest.mark.parametrize("shape", [(30, 7), (30, 22)])
    def test_extreme_scales_roundtrip(self, shape, method, scale):
        a = np.random.default_rng(shape[1]).standard_normal(shape) * scale
        data = factor_bytes(method(a))
        assert factor_bytes(read_factor(io.BytesIO(data))) == data


class TestMatrixText:
    def test_read_identity(self):
        a = read_matrix(io.StringIO("2 2\n1 0\n0 1\n"))
        assert np.array_equal(a, np.eye(2))

    def test_write_read_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-8, 8, size=(5, 3))
        path = tmp_path / "a.txt"
        write_matrix(a, path)
        assert np.array_equal(read_matrix(path), a)

    def test_byte_count(self):
        buf = io.StringIO()
        count = write_matrix(np.eye(2), buf)
        assert count == len(buf.getvalue().encode())

    def test_short_row(self):
        with pytest.raises(MatrixFormatError, match="line 3"):
            read_matrix(io.StringIO("2 2\n1 0\n0\n"))

    def test_missing_row(self):
        with pytest.raises(MatrixFormatError, match="expected 3 rows"):
            read_matrix(io.StringIO("3 1\n1\n2\n"))

    def test_extra_row(self):
        with pytest.raises(MatrixFormatError, match="line 4"):
            read_matrix(io.StringIO("2 1\n1\n2\n3\n"))

    def test_malformed_number(self):
        with pytest.raises(MatrixFormatError, match="'x'"):
            read_matrix(io.StringIO("1 2\n1 x\n"))

    def test_non_finite_rejected(self):
        with pytest.raises(MatrixFormatError, match="non-finite"):
            read_matrix(io.StringIO("1 1\nnan\n"))

    def test_empty_file(self):
        with pytest.raises(MatrixFormatError, match="empty"):
            read_matrix(io.StringIO(""))

    def test_bad_header(self):
        with pytest.raises(MatrixFormatError, match="header"):
            read_matrix(io.StringIO("2\n1\n1\n"))

    @pytest.mark.parametrize("text,message", [
        ("2 x\n1\n1\n", "malformed header at line 1: expected integers, got '2 x'"),
        ("-1 2\n", "negative dimensions at line 1: -1 x 2"),
    ])
    def test_header_values(self, text, message):
        with pytest.raises(MatrixFormatError, match=f"^{message}$"):
            read_matrix(io.StringIO(text))

    # When a file has two defects, the one on the earlier line is reported.
    @pytest.mark.parametrize(
        "text,message",
        [
            ("3 2\nnan 1\n1 2\n3\n", "non-finite value 'nan' at line 2"),
            ("3 1\nx\n", "malformed number 'x' at line 2"),
            ("2 2\n1\ninf 1\n", "shape error at line 2"),
        ],
    )
    def test_earlier_defect_wins(self, text, message):
        with pytest.raises(MatrixFormatError, match=f"^{message}"):
            read_matrix(io.StringIO(text))

    def test_whitespace_only_row_ends_data(self):
        with pytest.raises(MatrixFormatError, match="data ends at line 2"):
            read_matrix(io.StringIO("2 2\n1 2\n \t \n3 4\n"))

    def test_crlf_accepted(self, tmp_path):
        text = "2 2\r\n1 2\r\n3 4\r\n"
        expected = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(read_matrix(io.StringIO(text)), expected)
        path = tmp_path / "crlf.txt"
        path.write_bytes(text.encode())
        assert np.array_equal(read_matrix(path), expected)

    def test_underscore_digits_read_as_float_does(self):
        assert read_matrix(io.StringIO("1 1\n1_0\n"))[0, 0] == 10.0

    def test_overflowing_literal_rejected(self):
        with pytest.raises(MatrixFormatError, match="non-finite value '1e400' at line 2"):
            read_matrix(io.StringIO("1 1\n1e400\n"))

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_dimension_roundtrip(self, shape):
        buf = io.StringIO()
        write_matrix(np.zeros(shape), buf)
        assert read_matrix(io.StringIO(buf.getvalue())).shape == shape

    # Shapes that span several chunks of the text format, or one row per chunk.
    @pytest.mark.parametrize(
        "shape", [(2 * _CHUNK_VALUES + 3, 1), (3, _CHUNK_VALUES + 1), (150, 333)]
    )
    def test_roundtrip_across_chunks(self, shape):
        a = np.random.default_rng(shape[0]).standard_normal(shape)
        buf = io.StringIO()
        write_matrix(a, buf)
        text = buf.getvalue()
        rows = [" ".join(format(x, ".17g") for x in row) for row in a.tolist()]
        assert text == "\n".join([f"{shape[0]} {shape[1]}"] + rows) + "\n"
        assert read_matrix(io.StringIO(text)).tobytes() == a.tobytes()

    def test_defect_in_later_chunk(self):
        m = _CHUNK_VALUES + 10
        lines = [f"{m} 1"] + ["1"] * m
        lines[m - 3] = "nan"
        with pytest.raises(MatrixFormatError, match=f"^non-finite value 'nan' at line {m - 2}$"):
            read_matrix(io.StringIO("\n".join(lines) + "\n"))
