"""Where each layer's spans come from: the wrappers a traced run installs.

Every wrapper sits on a public call into one layer, at the name the
caller looks up.  ``repro.core.dhf`` binds its stage functions at import
time, so they are wrapped in that module's namespace; the fit's network
pieces are wrapped where ``repro.core.inpainting`` looks them up.
"""

from __future__ import annotations

from typing import Any, Dict, List

from perfbench.spans import Tracer

#: DHF stage functions as ``repro.core.dhf`` binds them -> layer.
DHF_STAGES: Dict[str, str] = {
    "unwarp": "core.alignment",
    "rewarp": "core.alignment",
    "warp_all_f0_tracks": "core.alignment",
    "stft": "dsp.stft",
    "istft": "dsp.stft",
    "build_round_masks": "core.masking",
    "default_bandwidth": "core.masking",
    "f0_spread_per_frame": "core.masking",
    "f0_track_to_frames": "core.masking",
    "harmonic_ridge_mask": "core.masking",
    "masked_energy_ratio": "core.masking",
    "combine_magnitude_phase": "core.phase",
    "interpolate_phase_cyclic": "core.phase",
    "auto_time_dilation": "core.inpainting",
}


#: The DHF layers whose self time traced runs attribute, per record.
DHF_LAYERS = (
    "core.alignment", "dsp.stft", "core.masking", "core.phase",
    "metrics.score", "core.inpainting", "nn.build", "nn.forward",
    "nn.backward", "nn.adam",
)


def _iterations(result) -> int:
    if result.stop_iteration is not None:
        return int(result.stop_iteration) + 1
    return int(len(result.losses))


def install_dhf(tracer: Tracer) -> None:
    """DHF stages, the deep-prior fit and its network pieces, scoring."""
    import repro.core.dhf as dhf
    import repro.core.inpainting as inpainting
    import repro.service.facade as facade
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.nn.unet import SpAcLUNet

    for attr, layer in DHF_STAGES.items():
        tracer.wrap(dhf, attr, layer)

    def count_single(args, kwargs, result):
        tracer.count("core.inpainting.calls")
        tracer.count("core.inpainting.records")
        tracer.count("core.inpainting.iterations", _iterations(result))

    def count_batch(args, kwargs, results):
        tracer.count("core.inpainting.calls")
        tracer.count("core.inpainting.records", len(results))
        tracer.count(
            "core.inpainting.iterations",
            max((_iterations(r) for r in results), default=0),
        )

    tracer.wrap(dhf, "inpaint_spectrogram", "core.inpainting",
                after=count_single)
    tracer.wrap(dhf, "inpaint_spectrograms", "core.inpainting",
                after=count_batch)
    # The fit's network pieces, as the in-painting module reaches them.
    tracer.wrap(inpainting, "SpAcLUNet", "nn.build")
    tracer.wrap(SpAcLUNet, "make_input_code", "nn.build")
    tracer.wrap(SpAcLUNet, "__call__", "nn.forward")
    tracer.wrap(inpainting, "masked_mse_loss", "nn.forward")
    tracer.wrap(Tensor, "backward", "nn.backward")
    tracer.wrap(Adam, "step", "nn.adam")
    tracer.wrap(Adam, "zero_grad", "nn.adam")
    tracer.wrap(inpainting, "fit_batched", "nn.batchfit")
    tracer.wrap(facade, "finalize_record", "metrics.score")


def _block_bytes(handle: Dict[str, Any]) -> int:
    import numpy as np

    total = 0
    for _offset, shape, dtype in handle["entries"]:
        total += int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
    return total


def install_shard(tracer: Tracer) -> None:
    """The shard engine in the parent, plus spans shipped back by workers.

    Workers forked after this runs inherit the wrappers; their spans
    ride back on the shard result and are merged at reassembly.  With a
    ``spawn`` start method workers import a clean library, send nothing
    back, and their compute stays inside ``pipeline.shard.wait``.
    """
    import repro.pipeline.shard as shard

    def count_plan(args, kwargs, shards):
        tracer.count("pipeline.shard.calls")
        tracer.count("pipeline.shard.shards", len(shards))
        tracer.count("pipeline.shard.records", sum(len(s) for s in shards))

    def count_pack(args, kwargs, result):
        task, _block = result
        tracer.count("pipeline.shard.bytes", _block_bytes(task["block"]))

    def harvest(args, kwargs, results):
        for outcome in args[2]:
            if outcome is None:
                continue
            tracer.count("pipeline.shard.bytes", _block_bytes(outcome["block"]))
            tracer.add_spans(outcome.get("perfbench_spans", []))

    tracer.wrap(shard, "plan_shards", "pipeline.shard.plan", after=count_plan)
    tracer.wrap(shard.ShardedExecutor, "_pack_shard", "pipeline.shard.pack",
                after=count_pack)
    tracer.wrap(shard.ShardedExecutor, "separate_records",
                "pipeline.shard.wait")
    tracer.wrap(shard.ShardedExecutor, "_unpack_outcomes",
                "pipeline.shard.reassemble", after=harvest)

    original = shard._run_shard

    def _run_shard(task):
        mark = len(tracer.spans)
        result = dict(tracer.call("pipeline.shard.worker", original, task))
        spans: List = tracer.spans[mark:]
        del tracer.spans[mark:]
        result["perfbench_spans"] = spans
        return result

    # Pools pickle the task function by reference: keep its name.
    _run_shard.__module__ = original.__module__
    _run_shard.__qualname__ = original.__qualname__
    tracer.patch(shard, "_run_shard", _run_shard)


def install_tfo(tracer: Tracer) -> None:
    """SpO2 estimation from the separated channels (Eqs. 10-11)."""
    import repro.tfo.monitor as monitor

    tracer.wrap(monitor, "modulation_ratio_at_draws", "tfo.spo2")
    tracer.wrap(monitor, "fit_spo2", "tfo.spo2")


def install_gateway_server(tracer: Tracer) -> None:
    """Session pushes, streaming, wire conversion and artefact writes."""
    import repro.gateway.app as app
    import repro.gateway.jobs as jobs
    import repro.gateway.sessions as sessions
    from repro.gateway.storage import ArtifactStore
    from repro.streaming.engine import StreamingSeparator

    tracer.wrap(sessions.MonitorSessionManager, "push", "gateway.sessions.push")
    tracer.wrap(StreamingSeparator, "push", "streaming.push")
    for module, attrs in (
        (sessions, ("_channels_from_wire", "_tracks_from_wire",
                    "monitor_update_to_wire", "monitor_result_to_wire")),
        (jobs, ("record_result_to_wire",)),
        (app, ("parse_job_submission", "error_to_wire")),
    ):
        for attr in attrs:
            tracer.wrap(module, attr, "gateway.wire")
    tracer.wrap(ArtifactStore, "write_job", "gateway.storage.write")
    tracer.wrap(ArtifactStore, "write_estimates", "gateway.storage.write")
