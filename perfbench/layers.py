"""Per-layer metrics from the span files that tracer.py writes.

A span's self time is its duration minus the durations of its direct
children. A layer's inclusive time sums its outermost spans (spans with
no ancestor in the same layer), so recursion inside a layer is not
counted twice. A function that is never called, or no longer exists,
reads as 0.
"""

import statistics
from collections import Counter, defaultdict

# Layers are the modules of src/wm3d that define public functions.
LAYERS = (
    "cli", "media_io", "shots", "wavelet3d", "wmprep", "prng",
    "embed", "extract", "keyfile", "attacks", "metrics",
)
LAYER_FIELDS = (("incl_s", "s"), ("self_s", "s"), ("calls", "count"), ("errors", "count"))

# Metric -> functions whose self time it sums.
FUNCTION_TIMES = {
    "wavelet3d.temporal_forward_s": ["wavelet3d.temporal_forward"],
    "wavelet3d.temporal_inverse_s": ["wavelet3d.temporal_inverse"],
    "wavelet3d.spatial_forward_s": [
        "wavelet3d.spatial_forward3_volume", "wavelet3d.spatial_forward3",
    ],
    "wavelet3d.spatial_inverse_s": [
        "wavelet3d.spatial_inverse3_volume", "wavelet3d.spatial_inverse3",
    ],
    "media_io.read_y4m_s": ["media_io.read_y4m"],
    "media_io.write_y4m_s": ["media_io.write_y4m"],
    "media_io.quantize_luma_s": ["media_io.quantize_luma", "media_io.round_half_away"],
    "shots.detect_shots_s": ["shots.detect_shots", "shots.histogram_distance"],
    "keyfile.write_key_s": ["keyfile.write_key"],
    "keyfile.read_key_s": ["keyfile.read_key"],
    "wmprep.permute_s": ["wmprep.permute"],
    "wmprep.unpermute_s": ["wmprep.unpermute"],
    "wmprep.disorder_s": ["wmprep.disorder"],
    "wmprep.undisorder_s": ["wmprep.undisorder"],
    "prng.permutation_s": ["prng.permutation"],
    "prng.gaussian_s": ["prng.gaussian", "prng.stream"],
    "embed.embed_clip_s": ["embed.embed_clip"],
    "embed.embed_shot_s": ["embed.embed_shot"],
    "embed.embed_plane_s": ["embed.embed_plane"],
    "embed.prepare_sign_planes_s": ["embed.prepare_sign_planes"],
    "extract.extract_clip_s": ["extract.extract_clip"],
    "extract.extract_shot_s": ["extract.extract_shot"],
    "extract.extract_plane_s": ["extract.extract_plane"],
    "attacks.drop_s": ["attacks.attack_drop"],
    "attacks.average_s": ["attacks.attack_average"],
    "attacks.swap_s": ["attacks.attack_swap"],
    "attacks.compress_s": ["attacks.attack_compress"],
    "attacks.noise_s": ["attacks.attack_noise"],
    "metrics.psnr_clip_s": ["metrics.psnr_clip", "metrics.psnr"],
    "metrics.nc_s": ["metrics.nc"],
}

# Counters recorded by tracer.py hooks, with their units.
COUNTS = {
    "wavelet3d.coeffs_transformed": "count",
    "wavelet3d.bytes_out_computed": "bytes",
    "wavelet3d.padding_frames": "count",
    "media_io.bytes_read": "bytes",
    "media_io.bytes_written": "bytes",
    "shots.frames_scanned": "count",
    "shots.shots_found": "count",
    "shots.shots_selected": "count",
    "keyfile.key_bytes": "bytes",
    "embed.shots_embedded": "count",
    "extract.length_repairs": "count",
}

# Other figures from the span files.
DERIVED = {
    "wavelet3d.useful_ratio": "ratio",
    "cli.import_s": "s",
    "trace.spans": "count",
}
# Figures the benchmark measures outside the traced children.
OUTSIDE = {
    "extract.ber_clean": "ratio",
    "trace.overhead_s": "s",
}


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for layer in LAYERS:
        for field, unit in LAYER_FIELDS:
            units[f"{layer}.{field}"] = unit
    units.update({name: "s" for name in FUNCTION_TIMES})
    units.update(COUNTS)
    units.update(DERIVED)
    units.update(OUTSIDE)
    return units


def _span_times(spans):
    """Per span: (name, layer, duration, self time, outermost in its layer)."""
    durations = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]
    rows = []
    for i, (name, _, _, parent, failed) in enumerate(spans):
        layer = name.split(".", 1)[0]
        outermost = True
        p = parent
        while p >= 0:
            if spans[p][0].split(".", 1)[0] == layer:
                outermost = False
                break
            p = spans[p][3]
        rows.append((name, layer, durations[i], durations[i] - child_time[i], outermost, failed))
    return rows


def aggregate(traces) -> tuple:
    """Per-layer metrics over the traced ops of one cycle.

    `traces` are the dicts tracer.py wrote, one per op. Returns
    ({metric: value} for every name of metric_units() except OUTSIDE,
    number of counter hooks that raised).
    """
    by_layer = defaultdict(Counter)
    by_function = Counter()
    counts = Counter()
    for trace in traces:
        for name, layer, duration, self_s, outermost, failed in _span_times(trace["spans"]):
            stats = by_layer[layer]
            stats["calls"] += 1
            stats["self_s"] += self_s
            stats["errors"] += failed
            if outermost:
                stats["incl_s"] += duration
            by_function[name] += self_s
        counts.update(trace["counts"])

    out = {}
    for layer in LAYERS:
        for field, _ in LAYER_FIELDS:
            out[f"{layer}.{field}"] = by_layer[layer][field]
    for metric, names in FUNCTION_TIMES.items():
        out[metric] = sum(by_function[n] for n in names)
    for name in COUNTS:
        out[name] = counts[name]
    transformed = counts["wavelet3d.coeffs_transformed"]
    useful = counts["wavelet3d.coeffs_useful"]
    out["wavelet3d.useful_ratio"] = useful / transformed if transformed else 0.0
    out["cli.import_s"] = statistics.median(t["import_s"] for t in traces)
    out["trace.spans"] = sum(len(t["spans"]) for t in traces)
    return out, counts["trace.hook_errors"]


def top_level_seconds(traces) -> float:
    """Total duration of the outermost spans (one cli.main per op)."""
    return sum(end - start for t in traces for _, start, end, parent, _ in t["spans"] if parent < 0)
