"""A test-local writer for format 2, the page-checksummed layout.

New stores write format 3; format-2 files must stay readable and
appendable, so the tests build them with this writer.
"""

import struct
import zlib

import numpy as np


def write_format2(path, matrix, page_size=4096):
    """Write ``matrix`` as a format-2 store file; return its record bytes.

    Header page: magic, page size, sequence length and their CRC32.  Then
    each row, zero-padded to whole pages of ``page_size - 4`` payload
    bytes, every page closed by the CRC32 of its payload.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    fields = struct.pack("<8sIQ", b"RPRSEQ2\x00", page_size, matrix.shape[1])
    payload = page_size - 4
    pages = -(-matrix.shape[1] * 8 // payload)
    with open(path, "wb") as out:
        header = fields + struct.pack("<I", zlib.crc32(fields))
        out.write(header.ljust(page_size, b"\x00"))
        for row in matrix:
            data = row.tobytes().ljust(pages * payload, b"\x00")
            for start in range(0, len(data), payload):
                chunk = data[start : start + payload]
                out.write(chunk + struct.pack("<I", zlib.crc32(chunk)))
    return pages * page_size
