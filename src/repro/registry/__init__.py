"""repro.registry — one registry for everything pluggable.

The paper's pipeline is *build a graph, run a one-round protocol under a
referee, measure bits*; this package is where the pluggable pieces of that
pipeline are named.  Five typed registries cover the five kinds:

========================  ===========================================  =====================
kind                      what the factory builds                      registered by
========================  ===========================================  =====================
``graph_family``          ``(n, seed, **params) -> LabeledGraph``      ``repro.graphs.generators``
``protocol``              ``(n, **params) -> OneRoundProtocol``        ``repro/protocols/*.py``, ``repro/sketching/*.py``
``experiment``            ``(**params) -> (title, headers, rows)``     ``repro.analysis.experiments``
``campaign``              ``() -> list[Scenario]``                     ``repro.engine.campaign``
``span``                  ``() -> tuple[str, ...]`` (attr keys)        ``repro.obs.taxonomy``
========================  ===========================================  =====================

Modules self-register with the :func:`register` decorator::

    from repro.registry import register

    @register("degeneracy", kind="protocol",
              capabilities=("reconstruction", "deterministic"))
    def _build(n: int, k: int = 2) -> OneRoundProtocol:
        ...

so adding a protocol or family never touches engine code — the engine
resolves names through :func:`get` / the per-kind ``Registry`` objects.
Registries load their owning modules lazily on first lookup; capability
metadata and the tunable-parameter schema (derived from the factory
signature) are introspectable via :func:`catalog`, which feeds
``python -m repro list --json`` and the api-surface CI gate.  Unknown
names raise :class:`~repro.errors.UnknownRegistryEntry` with a difflib
"did you mean" suggestion.

This module is also the only place allowed to *enumerate* what exists.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.errors import RegistryError, UnknownRegistryEntry
from repro.registry.core import Registry, RegistryEntry

__all__ = [
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "UnknownRegistryEntry",
    "GRAPH_FAMILY",
    "PROTOCOL",
    "EXPERIMENT",
    "CAMPAIGN",
    "SPAN",
    "KINDS",
    "register",
    "registry_for",
    "get",
    "entry",
    "catalog",
    "kinds",
]

#: The graph-family registry: ``(n, seed, **family_params) -> LabeledGraph``.
GRAPH_FAMILY: Registry = Registry(
    "graph_family",
    label="graph family",
    modules=("repro.graphs.generators",),
    context_params=2,  # (n, seed)
)

#: The protocol registry: ``(n, **protocol_params) -> OneRoundProtocol``.
#: Each name maps to its owning module, so a campaign that names only
#: ``degeneracy`` imports no sketching code.
PROTOCOL: Registry = Registry(
    "protocol",
    owners={
        "degeneracy": "repro.protocols.degeneracy_reconstruction",
        "forest": "repro.protocols.forest",
        "generalized_degeneracy": "repro.protocols.generalized_degeneracy",
        "bounded_degree": "repro.protocols.bounded_degree",
        "full_adjacency": "repro.protocols.trivial",
        "agm_connectivity": "repro.sketching.connectivity",
        "sketch_bipartiteness": "repro.sketching.bipartiteness",
    },
    context_params=1,  # (n,)
)

#: The experiment registry: ``(**params) -> (title, headers, rows)``.
EXPERIMENT: Registry = Registry(
    "experiment",
    modules=("repro.analysis.experiments",),
)

#: The builtin-campaign registry: ``() -> list[Scenario]``.
CAMPAIGN: Registry = Registry(
    "campaign",
    label="builtin campaign",
    modules=("repro.engine.campaign",),
)

#: The trace-span taxonomy: ``() -> tuple[str, ...]`` (the span's attr keys).
SPAN: Registry = Registry(
    "span",
    label="trace span",
    modules=("repro.obs.taxonomy",),
)

#: kind key -> registry, in catalog order.
KINDS: dict[str, Registry] = {
    r.kind: r
    for r in (GRAPH_FAMILY, PROTOCOL, EXPERIMENT, CAMPAIGN, SPAN)
}


def registry_for(kind: str) -> Registry:
    """The :class:`Registry` owning ``kind``."""
    try:
        return KINDS[kind]
    except KeyError:
        raise RegistryError(
            f"unknown registry kind {kind!r}; known: {', '.join(KINDS)}"
        ) from None


def register(
    name: str,
    *,
    kind: str,
    summary: str | None = None,
    capabilities: Sequence[str] = (),
    params: Mapping[str, str] | None = None,
    aliases: Sequence[str] = (),
    deprecated_aliases: Sequence[str] = (),
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: register a factory under ``name`` in the ``kind`` registry."""
    return registry_for(kind).register(
        name,
        summary=summary,
        capabilities=capabilities,
        params=params,
        aliases=aliases,
        deprecated_aliases=deprecated_aliases,
    )


def get(kind: str, name: str) -> Callable[..., Any]:
    """The factory registered as ``name`` in the ``kind`` registry."""
    return registry_for(kind).get(name)


def entry(kind: str, name: str) -> RegistryEntry:
    """Full metadata for ``name`` in the ``kind`` registry."""
    return registry_for(kind).entry(name)


def kinds() -> tuple[str, ...]:
    """The registry kinds, in catalog order."""
    return tuple(KINDS)


def catalog() -> dict[str, dict[str, dict]]:
    """``{kind: {name: metadata}}`` for every registry — all keys sorted.

    The introspection surface: ``python -m repro list --json`` prints it
    verbatim and the api-surface CI job diffs it against a checked-in
    fixture, so growing (or accidentally breaking) the catalog is always
    an explicit, reviewed change.
    """
    return {kind: KINDS[kind].catalog() for kind in sorted(KINDS)}

