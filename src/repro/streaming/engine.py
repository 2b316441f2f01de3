"""Stateful chunked separation with bounded latency.

:class:`StreamingSeparator` turns any offline
:class:`repro.separation.Separator` into a streaming engine: incoming
sample blocks (with their sliding f0-track slices) are buffered, windowed
into overlapping **analysis segments**, separated segment by segment, and
stitched with a raised-cosine cross-fade over each segment overlap.
Samples are emitted as soon as no future segment can change them, so the
end-to-end latency is bounded by one segment length regardless of the
stream duration.

Chunk lifecycle
---------------
::

    push(samples, f0 chunks)            flush()
        │                                  │
        ▼                                  ▼
    [sample/track buffers] ──► full segment ready? ──► separator.separate
        │                         (start multiples of the segment advance)
        │                                  │
        │                     cross-fade with the previous segment's
        │                     pending tail over the overlap region
        │                                  │
        ▼                                  ▼
    finalized samples out          tail kept pending for the next fade

Equivalence with the offline path
---------------------------------
Segment-interior output equals the offline ``separate`` on the whole
record whenever the wrapped separator is *frame-local* — each output
sample depends only on STFT frames overlapping it and each frame's
processing depends only on the f0 track inside its window (true for the
harmonic-masking family).  For that to hold exactly, choose

* ``segment_advance`` a multiple of the separator's STFT hop, so segment
  frames land on the offline frame grid, and
* ``overlap_samples`` at least ``n_fft + hop``, so the edge-contaminated
  zone of each segment (virtual zero padding + partial WOLA normalizer)
  stays strictly inside the cross-fade region.

Outside the recorded :attr:`StreamingSeparator.crossfade_spans` the
streamed output then matches the offline separation to float precision;
the equivalence tests assert ``<= 1e-8``.
"""

from __future__ import annotations

import numpy as np
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, DataError, ShapeError
from repro.separation import Separator
from repro.utils.validation import (
    check_f0_tracks,
    check_finite,
    check_positive,
    check_positive_int,
)


def crossfade_ramp(length: int) -> np.ndarray:
    """Raised-cosine fade-in weights of a given length, strictly in (0, 1).

    The symmetric half-sample offset keeps the fade-out ramp of the
    outgoing segment (``1 - ramp``) the exact mirror of the fade-in, so
    cross-fading two identical signals reproduces the signal to within
    one rounding step (~1 ulp).
    """
    check_positive_int(length, "length")
    return 0.5 - 0.5 * np.cos(np.pi * (np.arange(length) + 0.5) / length)


class StreamingSeparator:
    """Run an offline separator over a live stream, segment by segment.

    Parameters
    ----------
    separator:
        Any :class:`repro.separation.Separator`; it must be stateless
        across ``separate`` calls (every separator in this package is).
    sampling_hz:
        Sampling rate of the stream.
    segment_samples:
        Analysis segment length.  Also the worst-case latency: a pushed
        sample is finalized after at most this many further samples.
    overlap_samples:
        Overlap between consecutive segments, cross-faded on emission.
        Must be positive and smaller than ``segment_samples``.

    Notes
    -----
    ``push`` accepts arbitrary block sizes (including empty blocks) and
    returns the newly finalized samples per source; ``flush`` runs the
    final partial segment and emits everything left.  The engine records
    every segment it ran (:attr:`segments_run`) and every cross-faded
    span (:attr:`crossfade_spans`) so callers can reason about — or
    exclude — the blended regions.
    """

    def __init__(
        self,
        separator: Separator,
        sampling_hz: float,
        segment_samples: int,
        overlap_samples: int,
    ):
        if not isinstance(separator, Separator):
            raise ConfigurationError(
                f"separator must be a Separator, got {type(separator).__name__}"
            )
        check_positive_int(segment_samples, "segment_samples")
        check_positive_int(overlap_samples, "overlap_samples")
        if overlap_samples >= segment_samples:
            raise ConfigurationError(
                f"overlap_samples {overlap_samples} must be smaller than "
                f"segment_samples {segment_samples}"
            )
        self.separator = separator
        self.sampling_hz = check_positive(sampling_hz, "sampling_hz")
        self.segment_samples = int(segment_samples)
        self.overlap_samples = int(overlap_samples)
        #: Stride between consecutive segment starts.
        self.segment_advance = self.segment_samples - self.overlap_samples
        #: Samples pushed so far.
        self.n_pushed = 0
        #: Samples finalized (per source) so far.
        self.n_emitted = 0
        self.closed = False
        #: ``(start, stop)`` of every segment the separator ran.
        self.segments_run: List[Tuple[int, int]] = []
        #: ``(start, stop)`` of every cross-faded span, in sample coords.
        self.crossfade_spans: List[Tuple[int, int]] = []
        self._sources: Optional[List[str]] = None
        self._signal = np.zeros(0)
        self._tracks: Dict[str, np.ndarray] = {}
        self._start = 0  # absolute coordinate of _signal[0]
        self._next_segment = 0  # absolute start of the next segment
        self._pending: Dict[str, np.ndarray] = {}
        self._pending_end = 0  # pending covers [n_emitted, _pending_end)

    @property
    def source_names(self) -> List[str]:
        """Source names fixed by the first push (empty before it)."""
        return list(self._sources or [])

    @property
    def max_latency_samples(self) -> int:
        """Worst-case samples between a sample's arrival and its emission."""
        return self.segment_samples

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def push(
        self, samples, f0_tracks: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Add a block of samples plus the matching f0-track slices.

        Returns the newly finalized samples per source (possibly empty
        arrays while the engine waits for a full segment).
        """
        samples, chunks = self.check_push(samples, f0_tracks)
        if self._sources is None:
            self._sources = list(chunks)
            self._tracks = {name: np.zeros(0) for name in self._sources}
            self._pending = {name: np.zeros(0) for name in self._sources}
        self.n_pushed += samples.size
        if samples.size:
            self._signal = np.concatenate([self._signal, samples])
            for name in self._sources:
                self._tracks[name] = np.concatenate(
                    [self._tracks[name], chunks[name]]
                )
        return self._drain(flush=False)

    def check_push(
        self, samples, f0_tracks: Mapping[str, np.ndarray]
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Raise what :meth:`push` would reject, changing no state.

        Returns the samples and the f0-track slices as float arrays.
        Callers that transform a chunk before pushing it (such as
        :class:`repro.tfo.SpO2Monitor`) call this first, so a rejected
        chunk leaves their own state untouched too.
        """
        if self.closed:
            raise ConfigurationError(
                "cannot push into a finished StreamingSeparator"
            )
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ShapeError(
                f"samples must be 1-D, got shape {samples.shape}"
            )
        check_finite(samples, "samples")
        if not f0_tracks:
            raise ConfigurationError(
                "f0_tracks must contain at least one source"
            )
        if self._sources is not None \
                and set(f0_tracks) != set(self._sources):
            raise ConfigurationError(
                f"f0 track sources {sorted(f0_tracks)} do not match the "
                f"stream's sources {sorted(self._sources)}"
            )
        chunks = check_f0_tracks(
            {name: f0_tracks[name] for name in self._sources or f0_tracks},
            samples.size, of="chunk",
        )
        return samples, chunks

    def flush(self) -> Dict[str, np.ndarray]:
        """Run the final (possibly partial) segment and emit everything."""
        if self.closed:
            raise ConfigurationError("StreamingSeparator already finished")
        if self.n_pushed == 0:
            raise DataError(
                "cannot flush an empty stream: no samples were pushed"
            )
        out = self._drain(flush=True)
        self.closed = True
        self._signal = np.zeros(0)
        self._tracks = {}
        self._pending = {}
        return out

    # ------------------------------------------------------------------ #
    # Segment machinery
    # ------------------------------------------------------------------ #
    def _drain(self, flush: bool) -> Dict[str, np.ndarray]:
        emitted: Dict[str, List[np.ndarray]] = {
            name: [] for name in (self._sources or [])
        }
        while self.n_pushed >= self._next_segment + self.segment_samples:
            self._run_segment(
                self._next_segment,
                self._next_segment + self.segment_samples,
                last=False,
                sink=emitted,
            )
        if flush:
            if self.n_pushed > self._pending_end:
                # A final partial segment reaching the end of the record.
                self._run_segment(
                    self._next_segment, self.n_pushed, last=True, sink=emitted,
                )
            else:
                # The record ended exactly at a segment boundary; the
                # pending tail is already final (its right edge was the
                # true end of the data).
                for name in self._sources or []:
                    emitted[name].append(self._pending[name])
                    self._pending[name] = np.zeros(0)
                self.n_emitted = self._pending_end
        return {
            name: np.concatenate(parts) if parts else np.zeros(0)
            for name, parts in emitted.items()
        }

    def _run_segment(
        self,
        start: int,
        stop: int,
        last: bool,
        sink: Dict[str, List[np.ndarray]],
    ) -> None:
        lo = start - self._start
        hi = stop - self._start
        segment = self._signal[lo:hi]
        tracks = {
            name: self._tracks[name][lo:hi] for name in self._sources
        }
        estimates = self.separator.separate(
            segment, self.sampling_hz, tracks
        )
        self.segments_run.append((start, stop))
        fade_len = self._pending_end - start  # overlap with pending tail
        if fade_len > 0:
            self.crossfade_spans.append((start, self._pending_end))
        # Next finalization horizon: everything before the next segment's
        # start is final; the rest stays pending for the next cross-fade.
        horizon = stop if last else start + self.segment_advance
        ramp = crossfade_ramp(fade_len) if fade_len > 0 else None
        for name in self._sources:
            raw = estimates.get(name)
            est = None if raw is None else np.asarray(raw, dtype=np.float64)
            if est is None or est.ndim != 1 or est.size != stop - start:
                got = "missing" if est is None else f"shape {np.shape(raw)}"
                raise DataError(
                    f"separator {self.separator.name!r} returned {got} for "
                    f"source {name!r} on segment [{start}, {stop}) "
                    f"(expected {stop - start} samples)"
                )
            if ramp is not None:
                faded = (1.0 - ramp) * self._pending[name][:fade_len]
                faded += ramp * est[:fade_len]
                est = np.concatenate([faded, est[fade_len:]])
            sink[name].append(est[: horizon - start])
            self._pending[name] = est[horizon - start:]
        self.n_emitted = horizon
        self._pending_end = stop
        if not last:
            self._next_segment = start + self.segment_advance
            drop = self._next_segment - self._start
            if drop > 0:
                self._signal = self._signal[drop:]
                for name in self._sources:
                    self._tracks[name] = self._tracks[name][drop:]
                self._start = self._next_segment

    def __repr__(self) -> str:
        return (
            f"StreamingSeparator(separator={self.separator.name!r}, "
            f"segment={self.segment_samples}, overlap={self.overlap_samples}, "
            f"pushed={self.n_pushed}, emitted={self.n_emitted}, "
            f"closed={self.closed})"
        )


def stream_record(
    separator: Separator,
    mixed,
    sampling_hz: float,
    f0_tracks: Mapping[str, np.ndarray],
    segment_samples: int,
    overlap_samples: int,
    chunk_samples: int,
) -> Tuple[Dict[str, np.ndarray], StreamingSeparator]:
    """Drive one complete record through a :class:`StreamingSeparator`.

    Feeds ``mixed`` (and the aligned f0-track slices) in blocks of
    ``chunk_samples``, flushes, and returns the stitched per-source
    estimates together with the engine (whose
    :attr:`~StreamingSeparator.crossfade_spans` callers can inspect).
    """
    check_positive_int(chunk_samples, "chunk_samples")
    mixed = np.asarray(mixed, dtype=np.float64)
    engine = StreamingSeparator(
        separator, sampling_hz, segment_samples, overlap_samples
    )
    parts: Dict[str, List[np.ndarray]] = {}
    for start in range(0, mixed.size, chunk_samples):
        stop = min(mixed.size, start + chunk_samples)
        out = engine.push(
            mixed[start:stop],
            {name: np.asarray(t)[start:stop] for name, t in f0_tracks.items()},
        )
        for name, chunk in out.items():
            parts.setdefault(name, []).append(chunk)
    for name, chunk in engine.flush().items():
        parts.setdefault(name, []).append(chunk)
    estimates = {
        name: np.concatenate(chunks) for name, chunks in parts.items()
    }
    return estimates, engine
