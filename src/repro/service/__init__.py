"""repro.service — the separator registry and mode-routing facade.

The service layer is the single declarative front door over the three
execution paths that grew underneath it:

* **Registry** (:mod:`repro.service.registry`): every method — DHF and
  the five baselines — is registered under a canonical name with a
  frozen, validated :class:`SeparatorSpec` and a factory.
  :func:`build_separator` accepts a name, a spec, or a plain spec dict
  (``to_dict`` / ``from_dict`` round-trip), so methods are nameable from
  CLI flags and storable in experiment manifests.  Third-party methods
  plug in through :func:`register_separator`.
* **Facade** (:mod:`repro.service.facade`): a
  :class:`SeparationService` configured with one spec executes it in any
  mode — ``separate`` (offline, :mod:`repro.core` / baselines),
  ``separate_batch`` (the separator's ``separate_batch`` hook, in this
  process or, for ``workers > 1``, on one service-owned process shard
  engine), ``stream`` / ``stream_batch``
  (:func:`repro.streaming.stream_record` per record) — behind the
  shared STFT-plan cache, returning a unified
  :class:`SeparationOutcome`.  It is the only runner of record sets.
"""

from repro.service.facade import (
    SeparationOutcome,
    SeparationService,
    as_record,
)
from repro.service.registry import (
    RegistryEntry,
    available_separators,
    build_separator,
    default_spec,
    register_separator,
    resolve_spec,
    separator_entry,
    unregister_separator,
)
from repro.service.specs import (
    DHFSpec,
    EMDSpec,
    FrozenSpec,
    NMFSpec,
    RepetSpec,
    SeparatorSpec,
    SpectralMaskingSpec,
    VMDSpec,
)

__all__ = [
    "SeparationOutcome",
    "SeparationService",
    "as_record",
    "RegistryEntry",
    "available_separators",
    "build_separator",
    "default_spec",
    "register_separator",
    "resolve_spec",
    "separator_entry",
    "unregister_separator",
    "FrozenSpec",
    "SeparatorSpec",
    "DHFSpec",
    "EMDSpec",
    "VMDSpec",
    "NMFSpec",
    "RepetSpec",
    "SpectralMaskingSpec",
]
