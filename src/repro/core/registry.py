"""Implementation catalog and per-process registries (§4, Listing 5).

Two levels of "who knows about which implementations" exist:

The **catalog** is the universe of implementation *code*: every
:class:`~repro.core.chunnel.ChunnelImpl` subclass the deployment has, keyed
by ``(chunnel_type, impl_name)``.  Code does not travel over the wire during
negotiation — only metadata does — so when negotiation picks an
implementation by name, both sides instantiate it from the catalog (the
same way the paper's endpoints link against libraries providing fallback
implementations).

A **registry** is per application process: the implementations *this*
process has registered and may offer during negotiation (Listing 5 line 2's
``bertha::register_chunnel``).  Network-provided implementations (XDP
programs, switch programs installed by operators) are registered with the
discovery service instead (:mod:`repro.discovery`), not with any process
registry.
"""

from __future__ import annotations

from typing import Iterable, Optional, Type

from ..errors import NoImplementationError, RegistrationError
from .chunnel import ChunnelImpl, ChunnelSpec, ImplMeta, Offer

__all__ = ["ImplCatalog", "ChunnelRegistry", "catalog"]


class ImplCatalog:
    """All implementation classes known to the deployment."""

    def __init__(self):
        self._classes: dict[tuple[str, str], Type[ChunnelImpl]] = {}

    def add(self, impl_cls: Type[ChunnelImpl]) -> Type[ChunnelImpl]:
        """Register an implementation class (usable as a class decorator)."""
        meta = getattr(impl_cls, "meta", None)
        if meta is None:
            raise RegistrationError(
                f"{impl_cls.__name__} lacks a class-level ImplMeta"
            )
        key = (meta.chunnel_type, meta.name)
        existing = self._classes.get(key)
        if existing is not None and existing is not impl_cls:
            raise RegistrationError(
                f"implementation {key} already in catalog as {existing.__name__}"
            )
        self._classes[key] = impl_cls
        return impl_cls

    def lookup(self, chunnel_type: str, impl_name: str) -> Type[ChunnelImpl]:
        """The class implementing ``chunnel_type`` under ``impl_name``."""
        try:
            return self._classes[(chunnel_type, impl_name)]
        except KeyError:
            raise NoImplementationError(
                f"no implementation {impl_name!r} of chunnel "
                f"{chunnel_type!r} in the catalog"
            ) from None

    def instantiate(
        self,
        chunnel_type: str,
        impl_name: str,
        spec: ChunnelSpec,
        location: Optional[str] = None,
    ) -> ChunnelImpl:
        """Create an implementation instance bound to ``spec``."""
        return self.lookup(chunnel_type, impl_name)(spec, location=location)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._classes

    def __len__(self) -> int:
        return len(self._classes)


#: The process-wide catalog the built-in Chunnel library populates on import.
catalog = ImplCatalog()


class ChunnelRegistry:
    """The implementations one application process offers (Listing 5)."""

    def __init__(self, catalog_: Optional[ImplCatalog] = None):
        self._catalog = catalog_ or catalog
        self._registered: dict[tuple[str, str], Type[ChunnelImpl]] = {}

    def register(self, impl_cls: Type[ChunnelImpl]) -> None:
        """Offer ``impl_cls`` from this process during negotiation.

        The class is added to the catalog as a side effect if absent, so an
        app-private implementation can still be instantiated by name.
        """
        meta = getattr(impl_cls, "meta", None)
        if meta is None:
            raise RegistrationError(
                f"{impl_cls.__name__} lacks a class-level ImplMeta"
            )
        key = (meta.chunnel_type, meta.name)
        if key not in self._catalog:
            self._catalog.add(impl_cls)
        if key in self._registered:
            raise RegistrationError(f"implementation {key} already registered")
        self._registered[key] = impl_cls

    def unregister(self, impl_cls: Type[ChunnelImpl]) -> None:
        """Stop offering ``impl_cls`` (no-op if it was never registered)."""
        meta = impl_cls.meta
        self._registered.pop((meta.chunnel_type, meta.name), None)

    def has(self, chunnel_type: str, impl_name: str) -> bool:
        """True if this process registered the named implementation."""
        return (chunnel_type, impl_name) in self._registered

    def meta(self, chunnel_type: str, impl_name: str) -> Optional[ImplMeta]:
        """The metadata of the named registered implementation, or None."""
        impl_cls = self._registered.get((chunnel_type, impl_name))
        return None if impl_cls is None else impl_cls.meta

    def registered_types(self) -> set[str]:
        """All Chunnel types with at least one registered implementation."""
        return {ctype for ctype, _name in self._registered}

    def offers_for(
        self, chunnel_types: Iterable[str], origin: str
    ) -> dict[str, list[Offer]]:
        """Offers this process makes for each requested Chunnel type.

        ``origin`` should be ``"client"`` or ``"server"`` depending on which
        side of the connection this process is.
        """
        wanted = set(chunnel_types)
        offers: dict[str, list[Offer]] = {t: [] for t in wanted}
        for (ctype, _name), impl_cls in sorted(self._registered.items()):
            if ctype in wanted:
                offers[ctype].append(Offer(meta=impl_cls.meta, origin=origin))
        return offers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChunnelRegistry {sorted(self._registered)}>"
