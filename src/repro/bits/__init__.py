"""Bit-level substrate: exact message-size accounting for frugal protocols.

The paper's central resource is the number of *bits* each node sends to the
referee.  This subpackage provides:

* :class:`~repro.bits.writer.BitWriter` / :class:`~repro.bits.reader.BitReader`
  — append-only bit stream builder and cursor-based reader;
* :mod:`~repro.bits.codes` — self-delimiting and fixed-width integer codes
  (fixed-width, unary, Elias gamma, Elias delta, LEB128 varint); the
  protocols write IDs, degrees and power sums as fixed-width fields, and
  Elias delta only frames the reductions' tuple messages
  (:mod:`repro.reductions.framing`);
* :mod:`~repro.bits.sizing` — :func:`~repro.bits.sizing.id_width`, the
  width of every fixed-width field, plus the codes' closed-form lengths.

All protocols in :mod:`repro.protocols` serialize through this layer so the
auditor's byte counts are honest: a message's size is the number of bits
actually written, not a Python ``sys.getsizeof`` estimate.
"""

from repro.bits.writer import BitWriter
from repro.bits.reader import BitReader
from repro.bits.codes import (
    FixedWidthCode,
    UnaryCode,
    EliasGammaCode,
    EliasDeltaCode,
    VarintCode,
    IntegerCode,
)
from repro.bits.sizing import (
    bit_length,
    fixed_width_for,
    id_width,
    elias_gamma_length,
    elias_delta_length,
    varint_length,
)

__all__ = [
    "BitWriter",
    "BitReader",
    "FixedWidthCode",
    "UnaryCode",
    "EliasGammaCode",
    "EliasDeltaCode",
    "VarintCode",
    "IntegerCode",
    "bit_length",
    "fixed_width_for",
    "id_width",
    "elias_gamma_length",
    "elias_delta_length",
    "varint_length",
]
