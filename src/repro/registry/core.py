"""The typed registry: one ``name -> factory`` map per kind of pluggable thing.

A :class:`Registry` owns the entries of one *kind* (graph families,
protocols, experiments, campaigns).  Modules self-register their factories
with the :meth:`Registry.register` decorator, attaching capability
metadata (``decision`` / ``reconstruction`` / ``sketching`` / …), a
one-line summary (defaulting to the factory's docstring), and the tunable
parameter schema (derived from the factory signature unless given
explicitly).  Lookups resolve aliases, and unknown names raise
:class:`~repro.errors.UnknownRegistryEntry` carrying the nearest known
entry as a difflib suggestion.

Lazy loading: a registry is constructed with the list of modules that own
its registrations and imports them only on first use, so importing the
registry layer (or any single consumer) never drags in every protocol
implementation eagerly.  A registry may also map names to their owning
module (``owners``): looking up such a name imports that module alone,
while enumeration, membership and unknown or alias lookups load them all.
Loading is idempotent and thread-safe — pooled executors may resolve
specs from worker threads concurrently.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import warnings
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Generic, TypeVar

from repro.errors import RegistryError, UnknownRegistryEntry

__all__ = ["Registry", "RegistryEntry"]

T = TypeVar("T")


def _first_doc_line(obj: Any) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.strip().splitlines()[0] if doc.strip() else ""


def _describe_param(p: inspect.Parameter) -> str:
    """``"int = 2"`` / ``"float"`` — human- and JSON-friendly, stable."""
    ann = p.annotation
    if ann is inspect.Parameter.empty:
        type_s = ""
    elif isinstance(ann, str):  # modules use `from __future__ import annotations`
        type_s = ann
    else:
        type_s = getattr(ann, "__name__", str(ann))
    if p.default is inspect.Parameter.empty:
        return f"{type_s or 'any'} (required)"
    return f"{type_s or 'any'} = {p.default!r}"


@dataclass(frozen=True)
class RegistryEntry(Generic[T]):
    """One registered factory plus its introspectable metadata."""

    name: str
    kind: str
    factory: Callable[..., T]
    summary: str = ""
    capabilities: tuple[str, ...] = ()
    #: ``(param, "type = default")`` pairs for the *tunable* parameters —
    #: the context arguments the engine supplies (``n``, ``seed``) are
    #: excluded.  Declaration order.
    params: tuple[tuple[str, str], ...] = ()
    aliases: tuple[str, ...] = ()
    deprecated_aliases: tuple[str, ...] = ()
    module: str = ""
    #: The factory takes ``**kwargs`` — param-name validation is skipped.
    accepts_any_params: bool = False

    def describe(self) -> dict:
        """JSON-ready metadata (the ``catalog()`` payload for this entry)."""
        return {
            "aliases": sorted(self.aliases),
            "capabilities": sorted(self.capabilities),
            "deprecated_aliases": sorted(self.deprecated_aliases),
            "kind": self.kind,
            "module": self.module,
            "params": {name: spec for name, spec in sorted(self.params)},
            "summary": self.summary,
        }


class Registry(Generic[T]):
    """A lazily-populated ``name -> RegistryEntry`` map for one kind.

    Parameters
    ----------
    kind:
        Machine-readable kind key (``"protocol"``, ``"graph_family"``, …).
    label:
        Human phrase used in error messages (``"graph family"``).
    modules:
        Modules that own this kind's registrations; imported on first use.
    owners:
        ``name -> module`` for names one module registers: resolving such
        a name imports only its module.  Its modules join ``modules``.
    context_params:
        How many leading positional parameters of every factory are
        engine-supplied context (families take ``(n, seed, …)``, protocol
        builders ``(n, …)``) rather than user-tunable parameters.
    """

    def __init__(
        self,
        kind: str,
        *,
        label: str | None = None,
        modules: Sequence[str] = (),
        owners: Mapping[str, str] | None = None,
        context_params: int = 0,
    ) -> None:
        self.kind = kind
        self.label = label or kind.replace("_", " ")
        self.owners = dict(owners or {})
        self._modules = tuple(dict.fromkeys((*modules, *self.owners.values())))
        self._context_params = context_params
        self._entries: dict[str, RegistryEntry[T]] = {}
        self._aliases: dict[str, str] = {}
        self._loaded = False
        self._load_lock = threading.Lock()
        self._warned_aliases: set[str] = set()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    def register(
        self,
        name: str,
        *,
        summary: str | None = None,
        capabilities: Sequence[str] = (),
        params: Mapping[str, str] | None = None,
        aliases: Sequence[str] = (),
        deprecated_aliases: Sequence[str] = (),
    ) -> Callable[[Callable[..., T]], Callable[..., T]]:
        """Decorator: register ``factory`` under ``name`` with metadata."""

        def deco(factory: Callable[..., T]) -> Callable[..., T]:
            # Validate everything before touching any state, so a rejected
            # registration never leaves a half-applied entry behind.
            existing = self._entries.get(name)
            if existing is not None:
                # Idempotent re-execution of the defining module is fine;
                # a *different* factory stealing the name is a bug.
                if (existing.module, getattr(existing.factory, "__qualname__", "")) != (
                    factory.__module__, getattr(factory, "__qualname__", "")
                ):
                    raise RegistryError(
                        f"duplicate {self.label} registration {name!r} "
                        f"({existing.module} vs {factory.__module__})"
                    )
            alias_target = self._aliases.get(name)
            if alias_target is not None and alias_target != name:
                raise RegistryError(
                    f"{self.label} name {name!r} is already an alias "
                    f"of {alias_target!r}"
                )
            new_aliases = (*aliases, *deprecated_aliases)
            for alias in new_aliases:
                target = self._aliases.get(alias)
                if target is not None and target != name:
                    raise RegistryError(
                        f"{self.label} alias {alias!r} already points at {target!r}"
                    )
                if alias in self._entries:
                    raise RegistryError(
                        f"{self.label} alias {alias!r} shadows a canonical entry"
                    )
            entry = RegistryEntry(
                name=name,
                kind=self.kind,
                factory=factory,
                summary=summary if summary is not None else _first_doc_line(factory),
                capabilities=tuple(capabilities),
                params=self._derive_params(factory) if params is None
                else tuple(params.items()),
                aliases=tuple(aliases),
                deprecated_aliases=tuple(deprecated_aliases),
                module=factory.__module__,
                accepts_any_params=self._accepts_any(factory),
            )
            self._entries[name] = entry
            for alias in new_aliases:
                self._aliases[alias] = name
            return factory

        return deco

    def _derive_params(self, factory: Callable[..., T]) -> tuple[tuple[str, str], ...]:
        try:
            sig = inspect.signature(factory)
        except (TypeError, ValueError):  # builtins without signatures
            return ()
        tunables = list(sig.parameters.values())[self._context_params:]
        return tuple(
            (p.name, _describe_param(p))
            for p in tunables
            if p.kind not in (inspect.Parameter.VAR_POSITIONAL,
                              inspect.Parameter.VAR_KEYWORD)
        )

    @staticmethod
    def _accepts_any(factory: Callable[..., T]) -> bool:
        try:
            sig = inspect.signature(factory)
        except (TypeError, ValueError):
            return True
        return any(p.kind is inspect.Parameter.VAR_KEYWORD
                   for p in sig.parameters.values())

    # ------------------------------------------------------------------ #
    # lazy loading
    # ------------------------------------------------------------------ #

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        with self._load_lock:
            if self._loaded:
                return
            for module in self._modules:
                importlib.import_module(module)
            self._loaded = True

    # ------------------------------------------------------------------ #
    # lookup and introspection
    # ------------------------------------------------------------------ #

    def resolve(self, name: str) -> str:
        """Canonical name for ``name`` (resolving aliases), or raise."""
        if name not in self._entries and name in self.owners:
            importlib.import_module(self.owners[name])  # that module alone
        if name not in self._entries:
            self._ensure_loaded()
        if name in self._entries:
            return name
        if name in self._aliases:
            canonical = self._aliases[name]
            entry = self._entries[canonical]
            if name in entry.deprecated_aliases and name not in self._warned_aliases:
                self._warned_aliases.add(name)
                warnings.warn(
                    f"{self.label} name {name!r} is deprecated; "
                    f"use {canonical!r} instead",
                    DeprecationWarning,
                    stacklevel=3,
                )
            return canonical
        raise self.unknown(name)

    def unknown(self, name: str) -> UnknownRegistryEntry:
        """The error for a failed lookup, with a difflib suggestion."""
        import difflib  # deferred: only a failed lookup needs it

        known = self.names()
        close = difflib.get_close_matches(name, known + tuple(self._aliases), n=1)
        suggestion = close[0] if close else None
        msg = f"unknown {self.label} {name!r}"
        if suggestion is not None:
            msg += f"; did you mean {suggestion!r}?"
        msg += f" (known: {', '.join(known)})"
        return UnknownRegistryEntry(
            msg, kind=self.kind, name=name, suggestion=suggestion, known=known
        )

    def entry(self, name: str) -> RegistryEntry[T]:
        """Full metadata for ``name`` (aliases resolve)."""
        return self._entries[self.resolve(name)]

    def get(self, name: str) -> Callable[..., T]:
        """The registered factory for ``name`` (aliases resolve)."""
        return self.entry(name).factory

    def build(self, name: str, *args: Any, **kwargs: Any) -> T:
        """Call the factory for ``name`` with the given arguments."""
        return self.get(name)(*args, **kwargs)

    def validate_params(self, name: str, params: Mapping[str, Any]) -> None:
        """Reject parameter names the factory for ``name`` cannot accept."""
        entry = self.entry(name)
        if entry.accepts_any_params:
            return
        allowed = {p for p, _ in entry.params}
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise RegistryError(
                f"{self.label} {entry.name!r} got unknown parameter(s) "
                f"{', '.join(map(repr, unknown))}; accepted: "
                f"{', '.join(sorted(allowed)) or '(none)'}"
            )

    def names(self) -> tuple[str, ...]:
        """Canonical names, sorted."""
        self._ensure_loaded()
        return tuple(sorted(self._entries))

    def catalog(self) -> dict[str, dict]:
        """``{name: metadata}`` for every entry, sorted by name."""
        self._ensure_loaded()
        return {name: self._entries[name].describe() for name in self.names()}

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._entries or name in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover
        loaded = f"{len(self._entries)} entries" if self._loaded else "unloaded"
        return f"Registry(kind={self.kind!r}, {loaded})"
