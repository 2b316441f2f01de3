"""repro.service — the separator registry and mode-routing facade.

The service layer is the single declarative front door over the three
execution paths that grew underneath it:

* **Registry** (:mod:`repro.service.registry`): a fixed table of the
  seven methods — DHF and the five baselines, REPET twice — each under a
  canonical name with the frozen, validated :class:`SeparatorSpec`
  subclass that declares its knobs and the separator class built from
  it.  :func:`build_separator` accepts a name, a spec, or a plain spec
  dict (``to_dict`` / ``from_dict`` round-trip), so methods are
  nameable from CLI flags and storable in experiment manifests.
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
    available_separators,
    build_separator,
    default_spec,
    resolve_spec,
    separator_entry,
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
    "available_separators",
    "build_separator",
    "default_spec",
    "resolve_spec",
    "separator_entry",
    "FrozenSpec",
    "SeparatorSpec",
    "DHFSpec",
    "EMDSpec",
    "VMDSpec",
    "NMFSpec",
    "RepetSpec",
    "SpectralMaskingSpec",
]
