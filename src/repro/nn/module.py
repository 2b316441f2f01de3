"""Parameter registry of the deep prior's network.

:class:`Module` registers :class:`Parameter` and :class:`Module`
attributes on assignment, so a network's parameters and their dotted
names (``encoders.0.body.0.weight``, ...) follow from how it is built;
:func:`repro.nn.unet.stack_networks` stacks same-config networks
parameter by parameter under them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by :class:`Module`."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """A container of parameters and sub-modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are picked up automatically by
    :meth:`named_parameters` and :meth:`parameters`.
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
