"""Run one wm3d CLI command with timing wrappers on every public function.

Usage: python3 tracer.py SPANS_JSON OP_ID -- <wm3d arguments>

After importing wm3d.cli, every public function defined in a wm3d module
is replaced by a wrapper under every name a wm3d module binds it to, so
calls through `from .x import y` are seen as well as calls inside the
defining module. The wrapper records a span (name, start, end, parent,
failed) and, for a few functions, counts derived from arguments and
results. Spans stay in memory and are written to SPANS_JSON when the
command ends. src/ is not modified; the CLI exit code is passed through.
"""

import functools
import json
import os
import sys
import time
import types
from collections import Counter


class Recorder:
    """In-memory span list plus counters, shared by all wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, failed]
        self.stack = []
        self.counts = Counter()

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, False]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                try:
                    hook(self.counts, args, result)
                except Exception:  # a changed signature must not break the run
                    self.counts["trace.hook_errors"] += 1
            return result

        return traced


def install(recorder) -> int:
    """Wrap public wm3d functions in every wm3d module that binds them."""
    wrappers = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "wm3d" or mod_name.startswith("wm3d.")):
            continue
        for attr, value in list(vars(module).items()):
            if (
                isinstance(value, types.FunctionType)
                and not value.__name__.startswith("_")
                and value.__module__.startswith("wm3d.")
            ):
                if value not in wrappers:
                    wrappers[value] = recorder.wrap(value)
                setattr(module, attr, wrappers[value])
    return len(wrappers)


# --- counters derived at layer boundaries -------------------------------------


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _window_with_halo(frames, planes, params) -> int:
    """Coefficients embed/extract read: 8 frames x (window + 1-coef halo)."""
    height, width = frames[0].shape
    rect = params.rect_for(height, width)
    wm_h, wm_w = planes.shape[1:]
    r0, c0 = params.region_row0, params.region_col0
    rows = min(r0 + wm_h + 1, rect.rows) - max(r0 - 1, 0)
    cols = min(c0 + wm_w + 1, rect.cols) - max(c0 - 1, 0)
    return len(planes) * rows * cols


def _read(counts, args, result):
    counts["media_io.bytes_read"] += _size(args[0])


def _written(counts, args, result):
    counts["media_io.bytes_written"] += _size(args[1])


def _key_written(counts, args, result):
    counts["keyfile.key_bytes"] += _size(args[1])


def _detect(counts, args, result):
    counts["shots.frames_scanned"] += args[0].frame_count
    counts["shots.shots_found"] += len(result) - 1


def _select(counts, args, result):
    counts["shots.shots_selected"] += len(result)


def _temporal_forward(counts, args, result):
    counts["wavelet3d.coeffs_transformed"] += result.frames.size
    counts["wavelet3d.padding_frames"] += result.padded_length - result.original_length
    counts["wavelet3d.bytes_out_computed"] += result.frames.nbytes


def _volume_out(counts, args, result):
    counts["wavelet3d.bytes_out_computed"] += result.frames.nbytes


def _array_out(counts, args, result):
    counts["wavelet3d.bytes_out_computed"] += result.nbytes


def _embed_shot(counts, args, result):
    counts["embed.shots_embedded"] += 1
    counts["wavelet3d.coeffs_useful"] += _window_with_halo(args[0], args[1], args[2])


def _extract_shot(counts, args, result):
    counts["wavelet3d.coeffs_useful"] += _window_with_halo(args[0], args[1], args[5])


def _extract_clip(counts, args, result):
    counts["extract.length_repairs"] += sum(s.length_mismatch for s in result.shots)


HOOKS = {
    "media_io.read_y4m": _read,
    "media_io.read_pgm": _read,
    "media_io.write_y4m": _written,
    "media_io.write_pgm": _written,
    "keyfile.write_key": _key_written,
    "shots.detect_shots": _detect,
    "shots.select_shots": _select,
    "wavelet3d.temporal_forward": _temporal_forward,
    "wavelet3d.temporal_inverse": _array_out,
    "wavelet3d.spatial_forward3_volume": _volume_out,
    "wavelet3d.spatial_inverse3_volume": _volume_out,
    "embed.embed_shot": _embed_shot,
    "extract.extract_shot": _extract_shot,
    "extract.extract_clip": _extract_clip,
}


def main() -> int:
    out_path, op = sys.argv[1], sys.argv[2]
    if sys.argv[3] != "--":
        raise SystemExit("usage: tracer.py SPANS_JSON OP_ID -- <wm3d arguments>")
    argv = sys.argv[4:]

    t0 = time.perf_counter()
    import wm3d.cli

    import_s = time.perf_counter() - t0
    recorder = Recorder()
    wrapped = install(recorder)
    code = 1
    try:
        code = wm3d.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "op": op,
                    "import_s": import_s,
                    "wrapped": wrapped,
                    "spans": recorder.spans,
                    "counts": recorder.counts,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
