"""Bit-level substrate: exact message-size accounting for frugal protocols.

The paper's central resource is the number of *bits* each node sends to the
referee.  Every protocol writes its message as fixed-width fields:

* :class:`~repro.bits.writer.BitWriter` / :class:`~repro.bits.reader.BitReader`
  — append-only bit stream builder and cursor-based reader;
* :func:`~repro.bits.sizing.id_width` — the width of every field, the
  paper's ``log n`` unit.

The one variable-length code, the Elias delta length prefix that frames the
reductions' tuple messages, lives with its only user in
:mod:`repro.reductions.framing`.  A message's size is the number of bits
actually written, not a Python ``sys.getsizeof`` estimate, so the auditor's
counts are honest.
"""

from repro.bits.writer import BitWriter
from repro.bits.reader import BitReader
from repro.bits.sizing import id_width

__all__ = ["BitWriter", "BitReader", "id_width"]
