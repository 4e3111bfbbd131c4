"""Tests for the exception hierarchy and the top-level public API surface."""

import pytest

import repro
from repro.errors import (
    BitstreamError,
    BitstreamUnderflow,
    CodecError,
    DecodeError,
    FrugalityViolation,
    GraphError,
    InvalidVertexError,
    ProtocolError,
    RecognitionFailure,
    RegistryError,
    ReproError,
    SketchFailure,
    UnknownRegistryEntry,
)


class TestHierarchy:
    @pytest.mark.parametrize("exc", [
        BitstreamError, CodecError, GraphError, ProtocolError, SketchFailure,
        BitstreamUnderflow, InvalidVertexError,
        FrugalityViolation, DecodeError, RecognitionFailure,
        RegistryError, UnknownRegistryEntry,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_specific_parents(self):
        assert issubclass(BitstreamUnderflow, BitstreamError)
        assert issubclass(CodecError, BitstreamError)
        assert issubclass(InvalidVertexError, GraphError)
        assert issubclass(FrugalityViolation, ProtocolError)
        assert issubclass(DecodeError, ProtocolError)
        assert issubclass(RecognitionFailure, DecodeError)
        assert issubclass(RegistryError, ProtocolError)
        assert issubclass(UnknownRegistryEntry, ProtocolError)
        # the Mapping-contract half: deprecated dict views can raise it as KeyError
        assert issubclass(UnknownRegistryEntry, KeyError)

    def test_frugality_violation_payload(self):
        e = FrugalityViolation("too big", vertex=3, bits=99, budget=10)
        assert (e.vertex, e.bits, e.budget) == (3, 99, 10)

    def test_recognition_failure_payload(self):
        e = RecognitionFailure("stuck", stuck_vertices=frozenset({1, 2}))
        assert e.stuck_vertices == frozenset({1, 2})

    def test_catching_base_catches_everything(self):
        from repro.bits import BitWriter

        with pytest.raises(ReproError):
            BitWriter().write_bits(4, 1)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "2.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_docstring_example(self):
        """The package docstring's example must actually work."""
        from repro import DegeneracyReconstructionProtocol, Referee
        from repro.graphs.generators import random_planar

        g = random_planar(64, seed=1)
        report = Referee().run(DegeneracyReconstructionProtocol(k=5), g)
        assert report.output == g
        assert report.max_message_bits > 0
