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

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, (
    ("repro.bits.writer", ("BitWriter",)),
    ("repro.bits.reader", ("BitReader",)),
    ("repro.bits.sizing", ("id_width",)),
))
