"""The :class:`ArrayBackend` protocol — the array-ops seam of the hot paths.

Every heavy contraction in the deep-prior fitting engine
(:mod:`repro.nn.functional`), the fused Adam update
(:mod:`repro.nn.optim`) and the batch STFT transforms
(:mod:`repro.dsp.stft`) routes through the methods declared here instead
of calling numpy directly.  A backend bundles

* the **ops**: ``einsum``, ``matmul`` (with ``out=``), ``rfft``/``irfft``,
  ``index_add``, the fused ``adam_step_`` and the
  ``to_device``/``from_device`` transport pair;
* the **dtype policy**: :meth:`resolve_dtype` maps a requested compute
  dtype to the dtype the backend actually runs at, :meth:`prepare`
  enforces the backend's layout preferences on hot-loop operands, and
  :attr:`fft_dtype` picks the real dtype the batch STFT frames at.

The reference implementation (:class:`repro.backend.NumpyBackend`)
delegates each op to the *exact* numpy call the hot paths used before
this seam existed, so the default configuration is byte-identical to the
pre-backend code — that is the conformance anchor every accelerated
backend is measured against (see docs/architecture.md, "Backend
substrate").
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np


class ArrayBackend:
    """Base class for array-op backends.

    Subclasses override the class attributes (``name``, ``device``,
    ``dtype_policy``) and whichever ops they accelerate; the base
    implementations are the numpy reference semantics, so a backend only
    has to override what it changes.
    """

    #: Registry name (``"numpy"``, ``"numpy-f32"``, ``"torch"``).
    name: str = "abstract"
    #: Where the ops execute (``"cpu"`` or ``"cuda"``).
    device: str = "cpu"
    #: ``"preserve"`` (run at the caller's dtype) or ``"float32"``
    #: (force single precision at data-preparation boundaries).
    dtype_policy: str = "preserve"

    # ------------------------------------------------------------------ #
    # Dtype policy
    # ------------------------------------------------------------------ #
    def resolve_dtype(self, requested=None):
        """Compute dtype for a requested dtype (``None`` = backend default).

        ``"preserve"`` backends return the request unchanged (default
        ``float32``, matching the historical initialiser default);
        ``"float32"`` backends force single precision regardless of the
        request — the forcing happens only at data-preparation
        boundaries (network init, fit normalisation, STFT framing),
        never mid-graph, so mixed-precision graphs cannot arise.
        """
        if self.dtype_policy == "float32":
            return np.float32
        return np.float32 if requested is None else requested

    @property
    def fft_dtype(self):
        """Real dtype the batch STFT frames signals at."""
        return np.float64

    def prepare(self, array: np.ndarray) -> np.ndarray:
        """Apply the backend's layout/dtype preferences to a hot operand.

        The reference backend is an identity (byte-identical contract);
        accelerated backends may force contiguity and their compute
        dtype.  Only data-preparation boundaries call this — never code
        inside an autograd graph.
        """
        return array

    # ------------------------------------------------------------------ #
    # Device transport
    # ------------------------------------------------------------------ #
    def to_device(self, array: np.ndarray):
        """Move a host array onto the backend's device (numpy: identity)."""
        return array

    def from_device(self, array) -> np.ndarray:
        """Move a device array back to a host :class:`numpy.ndarray`."""
        return np.asarray(array)

    # ------------------------------------------------------------------ #
    # Contractions
    # ------------------------------------------------------------------ #
    def einsum(self, subscripts: str, *operands):
        """``np.einsum(..., optimize=True)`` — the hot-path contraction."""
        return np.einsum(subscripts, *operands, optimize=True)

    def matmul(self, a, b, out: Optional[np.ndarray] = None):
        """Batched GEMM, optionally into a preallocated ``out`` buffer."""
        return np.matmul(a, b, out=out)

    # ------------------------------------------------------------------ #
    # FFT
    # ------------------------------------------------------------------ #
    def rfft(self, x, n: Optional[int] = None, axis: int = -1):
        return np.fft.rfft(x, n=n, axis=axis)

    def irfft(self, x, n: Optional[int] = None, axis: int = -1):
        return np.fft.irfft(x, n=n, axis=axis)

    # ------------------------------------------------------------------ #
    # Scatter
    # ------------------------------------------------------------------ #
    def index_add(self, target: np.ndarray, indices, source,
                  unique: bool = False) -> None:
        """Scatter-add with a duplicate-free fast path.

        ``unique=True`` promises the caller has proven ``indices`` has
        no duplicates (the cached scatter plans do), enabling the plain
        vectorised fancy-index ``+=``.
        """
        if unique:
            target[indices] += source
        else:
            np.add.at(target, indices, source)

    # ------------------------------------------------------------------ #
    # Fused optimiser step
    # ------------------------------------------------------------------ #
    def adam_step_(self, param: np.ndarray, grad: np.ndarray,
                   m: np.ndarray, v: np.ndarray,
                   lr: float, beta1: float, beta2: float,
                   bc1: float, bc2: float, eps: float) -> None:
        """One fused in-place Adam update of a single parameter.

        The elementwise operation order is load-bearing: it reproduces
        the historical in-place formulation bit for bit, which the
        stacked-vs-one-record fit equivalence (and every golden fixture
        downstream of a deep-prior fit) is anchored on.  Backends that
        cannot guarantee this exact order must not override it.
        """
        m *= beta1
        m += (1 - beta1) * grad
        v *= beta2
        v += (1 - beta2) * grad * grad
        param -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def info(self) -> Dict[str, Any]:
        """JSON-able description (observability surfaces report this)."""
        return {
            "name": self.name,
            "device": self.device,
            "dtype_policy": self.dtype_policy,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"device={self.device!r}, dtype_policy={self.dtype_policy!r})"
        )
