"""Parameter registry of the deep prior's network.

:class:`Module` registers :class:`Parameter` and :class:`Module`
attributes on assignment, so a network's parameters and their dotted
state-dict names (``encoders.0.body.0.weight``, ...) follow from how it
is built; a stacked fit hands each record's parameters back under them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.errors import SerializationError, ShapeError
from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by :class:`Module`."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """A container of parameters and sub-modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are picked up automatically by :meth:`parameters`
    and :meth:`state_dict`.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        else:
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter keyed by its dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters in-place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = sorted(set(own) - set(state))
        unexpected = sorted(set(state) - set(own))
        if missing or unexpected:
            raise SerializationError(
                f"state dict mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ShapeError(
                    f"parameter {name!r}: state shape {value.shape} does not "
                    f"match model shape {param.data.shape}"
                )
            param.data = value.astype(param.data.dtype, copy=True)


class ModuleList(Module):
    """Sub-modules in order, registered under their indices ``0, 1, ...``."""

    def __init__(self, modules: Iterable[Module] = ()):
        super().__init__()
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(len(self._modules)), module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())
